"""Run an interpreter with CPython 3.12's builtin ``sum``.

Put this directory on ``PYTHONPATH`` and ``site`` imports this module
at start-up, before any program code: builtin ``sum`` is then the
3.12 algorithm on any interpreter. From 3.12 ``sum`` adds floats with
Neumaier's compensated summation (an int start and int items add
exactly until the first float; ints met after it are added plainly,
and the compensation is added once at the end), so a report that
depends on the order of a float sum renders other last digits there.
``tests/test_cli_pins.py`` runs the pinned reports under it.
"""

import builtins
import math


def _sum312(iterable, /, start=0):
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


builtins.sum = _sum312
