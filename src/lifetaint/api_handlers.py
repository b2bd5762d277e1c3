"""Hand-written models for library APIs whose data semantics matter.

Handlers are keyed by ``Class.method`` (arity-independent).  Everything not
listed here falls through to the default invoke-kind handlers, which mark the
receiver or the result tainted whenever any input is tainted.
"""

from .symbols import Entry, EntryDetails, IMMUTABLE_REF, collect_taints


def _string_result(taints, const=None, from_code=False):
    return Entry(EntryDetails(IMMUTABLE_REF, taints=taints,
                                    const_value=const, const_from_code=from_code))


def _concat_const(a, b):
    """Concatenated constant when both sides are code-originated strings."""
    if (a.const_value is not None and a.const_from_code
            and b.const_value is not None and b.const_from_code
            and isinstance(a.const_value, str) and isinstance(b.const_value, str)):
        return a.const_value + b.const_value, True
    return None, False


def builder_append(receiver, args):
    if receiver is None:
        return None
    arg = args[0]
    receiver.details.taints |= collect_taints(arg)
    const, from_code = _concat_const(receiver.details, arg.details)
    receiver.details.const_value = const
    receiver.details.const_from_code = from_code
    return receiver  # append returns the builder itself


def builder_to_string(receiver, args):
    if receiver is None:
        return None
    det = receiver.details
    return _string_result(collect_taints(receiver), det.const_value, det.const_from_code)


def string_concat(receiver, args):
    if receiver is None:
        return None
    taints = collect_taints(receiver, args[0])
    const, from_code = _concat_const(receiver.details, args[0].details)
    return _string_result(taints, const, from_code)


def string_value_of(receiver, args):
    src = args[0]
    det = src.details
    return _string_result(collect_taints(src), det.const_value, det.const_from_code)


def string_format(receiver, args):
    # formatting mangles the text, so the result is never a code constant
    return _string_result(collect_taints(*args))


def array_copy(receiver, args):
    # System.arraycopy(src, srcPos, dst, dstPos, length)
    if len(args) >= 3:
        args[2].details.taints |= collect_taints(args[0])
    return None


HANDLERS = {
    "StringBuilder.append": builder_append,
    "StringBuilder.toString": builder_to_string,
    "String.concat": string_concat,
    "String.valueOf": string_value_of,
    "String.format": string_format,
    "System.arraycopy": array_copy,
}


def lookup(signature):
    return HANDLERS.get(signature.rsplit("/", 1)[0])
