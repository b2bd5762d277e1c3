"""Warning construction, deduplication, SMS checks, report rendering."""

from functools import cached_property
from json.encoder import encode_basestring_ascii as _quoted  # a str as JSON

from .symbols import collect_taints

INFO_LEAK = "INFO_LEAK"
SMS_HARDCODED = "SMS_HARDCODED"
SMS_AUTOREPLY = "SMS_AUTOREPLY"

# a location's fields, in the order of a report's sorted keys
LOCATION_KEYS = ("api", "class", "instruction", "method", "role")


class Warning:
    """One detected behavior, keyed by its source-API set and sink API."""

    def __init__(self, kind, source_apis, sink_api, locations, component,
                 m, event_trace):
        self.kind = kind
        self.source_apis = frozenset(source_apis)
        self.sink_api = sink_api
        self.locations = tuple(locations)  # dicts of the LOCATION_KEYS
        self.component = component
        self.m = m
        self.event_trace = tuple(event_trace)

    def key(self):
        return (self.kind, self.source_apis, self.sink_api)

    def location_rows(self):
        """Each location as a tuple of its `LOCATION_KEYS` fields."""
        return [tuple(map(loc.__getitem__, LOCATION_KEYS)) for loc in self.locations]

    def to_dict(self):
        return {
            "kind": self.kind,
            "source_apis": sorted(self.source_apis),
            "sink_api": self.sink_api,
            "locations": [dict(loc) for loc in self.locations],
            "component": self.component,
            "detected_at_m": self.m,
            "event_trace": list(self.event_trace),
        }


class FoundWarning(Warning):
    """The warning of a finding at `location`, in the callback that runs in
    segment `segment` of the sequence `seq`, at m = its unit count.  Dedup
    reads only the key, and a report writes the locations from the tags, so
    the locations and the event trace are built on first read, then kept."""

    def __init__(self, kind, tags, sink_api, location, component, seq, segment):
        self.kind = kind
        self.source_apis = frozenset(t.source_api for t in tags)
        self.sink_api = sink_api
        self.component = component
        self.m = len(seq.unit_indexes)
        self._tags, self._location, self._seq, self._segment = tags, location, seq, segment

    def location_rows(self):
        # the sources by tag (TaintTag tuples: by source API, then location),
        # then the sink
        rows = [(t.source_api, t.location[0], t.location[2], t.location[1], "source")
                for t in sorted(self._tags)]
        cls, method, index = self._location
        return rows + [(self.sink_api, cls, index, method, "sink")]

    @cached_property
    def locations(self):
        return tuple(dict(zip(LOCATION_KEYS, row)) for row in self.location_rows())

    @cached_property
    def event_trace(self):
        return self._seq.event_trace(self._segment)


def dedup_warnings(raw):
    """One warning per (kind, source set, sink); smaller source sets for the
    same kind and sink are dropped when another warning subsumes them.

    Keeps the first representative of each surviving key, so the minimal-m,
    earliest-sequence metadata wins.
    """
    by_key = {}
    for w in raw:
        by_key.setdefault(w.key(), w)
    return [w for (kind, sources, sink), w in by_key.items()
            if not any(okind == kind and osink == sink and sources < osources
                       for (okind, osources, osink) in by_key)]


def detect_sms_attacks(sms_rule, arg_entries, config):
    """SMS checks at a send call site: (kind, source tags) pairs.

    SMS_HARDCODED fires, with no tags, when the recipient argument carries a
    constant that originates in app code (every constant does: a
    CONST_STRING or CONST_NUM, as it is or passed through String.valueOf,
    concat or a StringBuilder); SMS_AUTOREPLY fires when the
    recipient is tainted by an originating-address API.  Numbers arriving
    from configuration files or other APIs carry neither mark and are
    (knowingly) not reported.
    """
    idx = sms_rule["recipient_arg_index"]
    if idx >= len(arg_entries):
        return []
    recipient = arg_entries[idx]
    out = []
    if recipient.const_value is not None:
        out.append((SMS_HARDCODED, set()))
    origin_tags = {
        t for t in collect_taints(recipient)
        if t.source_api in config.originating_address_apis
    }
    if origin_tags:
        out.append((SMS_AUTOREPLY, origin_tags))
    return out


class Report:
    def __init__(self, app_id, warnings, m_reached, sequences_analyzed,
                 elapsed, finished, error=None):
        self.app_id = app_id
        self.warnings = warnings
        self.m_reached = m_reached
        self.sequences_analyzed = sequences_analyzed
        self.elapsed = elapsed
        self.finished = finished
        self.error = error

    def to_dict(self):
        # elapsed time is deliberately left out: reports must be byte-identical
        # across runs (it is shown by the table renderer instead)
        doc = {
            "app_id": self.app_id,
            "finished": self.finished,
            "m_reached": self.m_reached,
            "sequences_analyzed": self.sequences_analyzed,
            "warnings": [w.to_dict() for w in self.warnings],
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


# json.dumps(report.to_dict(), indent=2, sort_keys=True)'s text of a report,
# a warning and a location (docs/report.md), with a %s for each value
_REPORT = ('{\n  "app_id": %s,%s\n  "finished": %s,\n  "m_reached": %s,\n'
           '  "sequences_analyzed": %s,\n  "warnings": %s\n}')
_WARNING = ('{\n      "component": %s,\n      "detected_at_m": %s,\n      "event_trace": %s,\n'
            '      "kind": %s,\n      "locations": %s,\n      "sink_api": %s,\n'
            '      "source_apis": %s\n    }')
_LOCATION = ('{\n          "api": %s,\n          "class": %s,\n          "instruction": %s,\n'
             '          "method": %s,\n          "role": %s\n        }')


def _list(items, indent):
    """The JSON list of the JSON texts `items`, which closes at `indent`."""
    text = (",\n  " + indent).join(items)
    return "[\n  %s%s\n%s]" % (indent, text, indent) if text else "[]"


def _scalar(value):
    """An int, bool or None as json.dumps writes it; any other is refused."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("a report holds no %s" % type(value).__name__)


def _warning(w):
    """The JSON text of `w` in a report, its locations from its rows: a
    `FoundWarning` builds no location dicts."""
    locations = [_LOCATION % (_quoted(api), _quoted(cls), _scalar(index), _quoted(method),
                              _quoted(role)) for api, cls, index, method, role in w.location_rows()]
    return _WARNING % (
        _quoted(w.component), _scalar(w.m), _list(map(_quoted, w.event_trace), "      "),
        _quoted(w.kind), _list(locations, "      "), _quoted(w.sink_api),
        _list(map(_quoted, sorted(w.source_apis)), "      "))


def render_report(report, fmt):
    """Render a report as stable JSON or a terminal table.

    The JSON is `json.dumps(report.to_dict(), indent=2, sort_keys=True)`,
    written in one pass from the report's fields: with an indent the
    standard encoder runs in pure Python and leaves reference cycles behind
    (its nested closures), so a batch that forces no collection would hold
    them."""
    if fmt == "json":
        return _REPORT % (
            _quoted(report.app_id),
            "" if report.error is None else '\n  "error": %s,' % _quoted(report.error),
            _scalar(report.finished), _scalar(report.m_reached),
            _scalar(report.sequences_analyzed), _list(map(_warning, report.warnings), "  "))
    if fmt == "table":
        lines = [
            "app: %s" % report.app_id,
            "finished: %s   m reached: %s   sequences: %d   elapsed: %.2fs"
            % (report.finished, report.m_reached, report.sequences_analyzed,
               report.elapsed),
        ]
        if report.error:
            lines.append("error: %s" % report.error)
        if not report.warnings:
            lines.append("no warnings")
        else:
            lines.append("%-14s %-40s %-28s %s" % ("kind", "sources", "sink", "trace"))
            for w in report.warnings:
                lines.append("%-14s %-40s %-28s %s" % (
                    w.kind, ",".join(sorted(w.source_apis)) or "-", w.sink_api,
                    " > ".join(w.event_trace),
                ))
        return "\n".join(lines)
    raise ValueError("unknown report format %r" % fmt)
