"""Warning construction, deduplication, SMS checks, report rendering."""

from json.encoder import encode_basestring_ascii

from .symbols import collect_taints

INFO_LEAK = "INFO_LEAK"
SMS_HARDCODED = "SMS_HARDCODED"
SMS_AUTOREPLY = "SMS_AUTOREPLY"


class Warning:
    """One detected behavior, keyed by its source-API set and sink API."""

    def __init__(self, kind, source_apis, sink_api, locations, component,
                 m, event_trace):
        self.kind = kind
        self.source_apis = frozenset(source_apis)
        self.sink_api = sink_api
        self.locations = tuple(locations)  # dicts: role/api/class/method/instruction
        self.component = component
        self.m = m
        self.event_trace = tuple(event_trace)

    def key(self):
        return (self.kind, self.source_apis, self.sink_api)

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
    reads only the key and keeps few of the raw warnings, so the locations
    and the event trace are built on first read, and then kept as a
    `Warning`'s are."""

    def __init__(self, kind, tags, sink_api, location, component, seq, segment):
        self.kind = kind
        self.source_apis = frozenset(t.source_api for t in tags)
        self.sink_api = sink_api
        self.component = component
        self.m = len(seq.unit_indexes)
        self._tags, self._location, self._seq, self._segment = tags, location, seq, segment

    def __getattr__(self, name):  # only for an attribute not yet set
        if name == "locations":
            value = tuple(source_locations(self._tags)
                          + [sink_location(self.sink_api, self._location)])
        elif name == "event_trace":
            value = self._seq.event_trace(self._segment)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


def source_locations(tags):
    return [
        {"role": "source", "api": t.source_api, "class": t.location[0],
         "method": t.location[1], "instruction": t.location[2]}
        for t in sorted(tags)  # TaintTag tuples: by source API, then location
    ]


def sink_location(api, location):
    return {"role": "sink", "api": api, "class": location[0],
            "method": location[1], "instruction": location[2]}


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


def _json(value, indent, out):
    """Append `value` to `out` as `json.dumps(value, indent=2,
    sort_keys=True)` writes it, for the str, int, bool, None, dict and list
    values of a report; `indent` is the current line's indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (dict, list)):
        ends = "{}" if isinstance(value, dict) else "[]"
        if not value:
            out.append(ends)
            return
        inner = indent + "  "
        sep = ends[0] + "\n" + inner
        for item in sorted(value) if ends == "{}" else value:
            out.append(sep)
            if ends == "{}":
                out += (encode_basestring_ascii(item), ": ")
                item = value[item]
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + ends[1])
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError("a report holds no %s" % type(value).__name__)


def render_report(report, fmt):
    """Render a report as stable JSON or a terminal table.

    The JSON is `json.dumps(doc, indent=2, sort_keys=True)`, written by
    `_json`: with an indent the standard encoder runs in pure Python and
    leaves reference cycles behind (its nested closures), so a batch that
    forces no collection would hold them."""
    if fmt == "json":
        out = []
        _json(report.to_dict(), "", out)
        return "".join(out)
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
