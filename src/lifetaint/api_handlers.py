"""Hand-written models for library APIs whose data semantics matter.

Handlers are keyed by ``Class.method``, each with whether it reads a receiver
and the number of arguments it reads; a call that passes less, and
everything not listed here, falls through to the default invoke rule, which
marks the receiver and the result tainted whenever any input is tainted.
A handler is called as `handler(frame, receiver, args)`.
"""

from .symbols import add_taints, assign, collect_taints, value_entry


def _concat_const(a, b):
    """The concatenated constant when both sides are string constants, else
    None."""
    if isinstance(a.const_value, str) and isinstance(b.const_value, str):
        return a.const_value + b.const_value
    return None


def builder_append(frame, receiver, args):
    arg = args[0]
    add_taints(frame, receiver, collect_taints(arg))
    # a builder that a kept state holds is a mutable object, whose constant
    # is None unless a join made a number and its String.valueOf one
    # object: tests/test_trail.py covers that write
    assign(frame, receiver, "const_value", _concat_const(receiver, arg))
    return receiver  # append returns the builder itself


def builder_to_string(frame, receiver, args):
    return value_entry(collect_taints(receiver), receiver.const_value)


def string_concat(frame, receiver, args):
    return value_entry(collect_taints(receiver, args[0]), _concat_const(receiver, args[0]))


def string_value_of(frame, receiver, args):
    src = args[0]
    return value_entry(collect_taints(src), src.const_value)


def string_format(frame, receiver, args):
    # formatting mangles the text, so the result is never a code constant
    return value_entry(collect_taints(*args))


def array_copy(frame, receiver, args):
    # System.arraycopy(src, srcPos, dst, dstPos, length)
    add_taints(frame, args[2], collect_taints(args[0]))
    return None


# Class.method -> (handler, whether it reads a receiver, number of arguments
# it reads)
HANDLERS = {
    "StringBuilder.append": (builder_append, True, 1),
    "StringBuilder.toString": (builder_to_string, True, 0),
    "String.concat": (string_concat, True, 1),
    "String.valueOf": (string_value_of, False, 1),
    "String.format": (string_format, False, 0),
    "System.arraycopy": (array_copy, False, 3),
}

def lookup(signature, has_receiver):
    """The handler for a call of a Class.method/argc signature, with a
    receiver or not, or None."""
    name, _, argc = signature.rpartition("/")
    handler, reads_receiver, reads = HANDLERS.get(name, (None, False, 0))
    if int(argc) < reads or (reads_receiver and not has_receiver):
        return None
    return handler
