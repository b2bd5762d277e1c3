"""Exception types shared across the package, and the JSON reader and list
check the loaders use."""

import json


class LifetaintError(Exception):
    """Base class for all lifetaint errors."""


class ModelError(LifetaintError):
    """A life-cycle model file is malformed or internally inconsistent."""


class AppLoadError(LifetaintError):
    """An app IR file is malformed or fails validation."""


class AnalysisError(LifetaintError):
    """The taint engine hit an unrecoverable inconsistency while analyzing."""

    def __init__(self, message, location=None):
        if location is not None:
            message = "%s (at %s.%s[%d])" % (message, *location)
        super().__init__(message)


class ConfigError(LifetaintError):
    """Bad run configuration (CLI arguments, source/sink config file)."""


def load_json(path, error):
    """The JSON document in the file at `path`; a file that is not UTF-8
    JSON within the parser's nesting limit, or a path that open() refuses
    as malformed (one holding a NUL), raises `error`, naming the path."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except ValueError as exc:
        raise error("%r: cannot be opened: %s" % (path, exc)) from exc
    with fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise error("%s: not valid JSON: %s" % (path, exc)) from exc


def list_of(kind, doc, key, where, error):
    """A copy of doc[key] (default []), checked to be a list of `kind`
    items; otherwise `error` is raised, naming the field."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(map(kind.__instancecheck__, value)):
        noun = {dict: "objects", str: "strings", list: "lists"}[kind]
        raise error("%s: field '%s' must be a list of %s" % (where, key, noun))
    return list(value)
