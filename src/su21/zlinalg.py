"""Unit-pivot elimination, Hermite and Smith normal forms, and cokernel
invariants, on plain rows: equal-length sequences of Python ints.

All arithmetic is on Python ints, so no intermediate entry can overflow.
Large relation sets arrive as sparse rows ({column: entry} dicts) and are
first shrunk by eliminate_unit_pivots, the "badly presented Z-module" step
of Havas, Holt and Rees (1993); only its small result becomes dense rows.
The normal forms copy their input and never change it.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from math import gcd, lcm

_log = logging.getLogger(__name__)

# The shortest PIVOT_ROWS_PER_COLUMN * cols rows are eliminated on, the rest held back.
PIVOT_ROWS_PER_COLUMN = 1.5


def eliminate_unit_pivots(rows, cols: int) -> tuple:
    """Relations with the same cokernel and the same class of the last
    coordinate as rows, a list of sparse rows {column: nonzero int} over
    cols columns, which is consumed.  Returns (dense_rows, kept_cols): the
    nonzero rows left, once each up to sign, as int tuples over the
    kept_cols columns that were not pivots.

    Most rows of a tall relation matrix are never pivots, and substituting
    into them is most of the fill-in, so only the shortest
    PIVOT_ROWS_PER_COLUMN * cols rows (the earlier on equal lengths) are
    eliminated on and the rest are held back and rewritten afterwards: the
    excess-row pruning of structured Gaussian elimination (LaMacchia and
    Odlyzko, 1990), exact over Z for any split, though a rewritten row may
    keep an entry +-1 off the last column.  Logs at DEBUG as _eliminate does.
    """
    by_length = sorted(range(len(rows)), key=list(map(len, rows)).__getitem__)
    return _eliminate(rows, cols, set(by_length[int(PIVOT_ROWS_PER_COLUMN * cols) :]))


def _eliminate(rows, cols: int, held) -> tuple:
    """eliminate_unit_pivots with the rows whose indices are in held held
    back.  While a row not held back has an entry +-1 in a column other
    than the last, it expresses that column's generator in terms of the
    others, so it is substituted into every other such row and the row and
    the column are dropped.  Held-back rows get no fill-in and are never
    pivots.  Then each pivot row gives its column's value over the kept
    columns by back-substitution in reverse pivot order, and every row is
    rewritten with the values: for the held-back rows the same change of
    generators, so any split is exact, but only with none held back is no
    unit left off the last column.

    A value is one int with kept coordinate t in bits [t*w, (t+1)*w)
    (Kronecker substitution).  A coordinate is at most L, the largest sum
    |v| over a row times the largest bound, bound being 1 on a kept column
    and sum |v| * bound over its pivot row on a pivot column; so the fields
    of w = L.bit_length() + 1 bits, lifted by 2**(w-1), read back exactly.
    A row and its negation pack to t and -t: by |t| each comes out once, in
    order of first occurrence, its last nonzero entry positive.

    Pivots are taken in rounds of rising Markowitz cost (row length - 1) *
    (column length - 1), which keeps fill-in and entry growth small: a
    round scans the rows in order and takes each row's cheapest unit pivot
    (the unit column in the fewest rows, the least on a tie) within the
    round's limit; a round that takes none raises the limit along 0, 1, 3,
    7, ... to the first value at or above the cheapest cost it deferred.
    A row is costed afresh when the scan reaches it, but two kinds of scan
    are skipped, as neither can take a pivot or change what is deferred.
    A row that a round left empty holds no column, so it never gains an
    entry again and leaves the scan.  And the rows after a round's last
    pivot are, in the next round and as long as it takes nothing, as that
    round costed them, each over the same limit: so a round that reaches
    them having taken nothing ends there, deferring the cheapest cost they
    had as well.  Each round that takes pivots logs one DEBUG line, and the
    end one with the rows held back, how many are nonzero after
    substitution, w and the rows costed in all rounds.
    """
    last = cols - 1
    active = [i for i in range(len(rows)) if i not in held]
    holders = [set() for _ in range(cols)]
    for i in active:
        for c in rows[i]:
            holders[c].add(i)
    pivots = []  # (col, sign, pivot row), in the order taken
    debug = _log.isEnabledFor(logging.DEBUG)
    limit = costed = 0
    # the last pivot row of the last round, if it took any, and the cheapest
    # cost that round deferred after it, which its successor starts from
    resume, deferred = len(rows), None
    while True:
        taken = 0
        stop = resume
        for i in active:
            if i > stop:  # unchanged since costed over this limit: none can be taken
                break
            row = rows[i]
            col = None
            for c, v in row.items():
                if (v == 1 or v == -1) and c != last:
                    length = len(holders[c])
                    if col is None or length < least or (length == least and c < col):
                        col, least = c, length
            if col is None:
                continue
            cost = (len(row) - 1) * (least - 1)
            if cost > limit:
                if deferred is None or cost < deferred:
                    deferred = cost
                continue
            sign = row.pop(col)
            pivots.append((col, sign, row))
            targets = holders[col]
            holders[col] = set()
            targets.discard(i)
            entries = [(c, v, holders[c]) for c, v in row.items()]
            for k in targets:
                other = rows[k]
                factor = other.pop(col) * sign
                for c, v, holding in entries:
                    value = other.get(c)
                    if value is None:
                        other[c] = -factor * v
                        holding.add(k)
                    else:
                        value -= factor * v
                        if value:
                            other[c] = value
                        else:
                            del other[c]
                            holding.discard(k)
            for _, _, holding in entries:
                holding.discard(i)
            rows[i] = {}
            taken += 1
            stop, resume = len(rows), i
            deferred = None  # from here on, the cheapest cost past the last pivot
        if debug:
            costed += bisect_right(active, stop)
        if taken:
            active = [i for i in active if rows[i]]
            if debug:
                message = "unit pivots: limit %d, %d taken, %d rows left"
                _log.debug(message, limit, taken, len(active))
        elif deferred is None:
            break
        else:
            while limit < deferred:
                limit = 2 * limit + 1
            resume, deferred = len(rows), None
    kept = sorted(set(range(cols)).difference(col for col, _, _ in pivots))
    bound = dict.fromkeys(kept, 1)  # on |coordinate| of each column's value
    for col, _, row in reversed(pivots):
        bound[col] = sum(abs(v) * bound[c] for c, v in row.items())
    norm = max([sum(map(abs, row.values())) for row in rows], default=0)
    width = (norm * max(bound.values(), default=0)).bit_length() + 1
    shifts = range(0, width * len(kept), width)
    value = {c: 1 << s for c, s in zip(kept, shifts)}  # each column over the kept ones
    for col, sign, row in reversed(pivots):
        value[col] = -sign * sum(v * value[c] for c, v in row.items())
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = sum(half << s for s in shifts)  # lifts every field into [0, mask]
    totals = {i: sum(v * value[c] for c, v in r.items()) for i, r in enumerate(rows) if r}
    if debug:
        message = (
            "held-back rows: %d, %d nonzero after substitution, %d-bit fields; %d rows costed"
        )
        substituted = sum(1 for i in held if totals.get(i))
        _log.debug(message, len(held), substituted, width, costed)
    distinct = dict.fromkeys(map(abs, filter(None, totals.values())))  # each row once, up to sign
    fields = [tuple([(t >> s & mask) - half for s in shifts]) for t in map(bias.__add__, distinct)]
    return fields, len(kept)


def hermite_normal_form(rows) -> list:
    """Row Hermite normal form of the rows, as new row lists: zero rows
    last, positive pivots in strictly increasing columns, entries above
    each pivot reduced into [0, pivot).  Floor quotients leave each entry
    below the pivot in [0, pivot), so the least nonzero |entry| of the
    column, the next pivot, falls until the column is cleared."""
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    pivot_row = 0
    for col in range(n):
        if pivot_row == m:
            break
        while True:
            best = -1
            best_abs = 0
            for r in range(pivot_row, m):
                v = a[r][col]
                if v:
                    av = -v if v < 0 else v
                    if best < 0 or av < best_abs:
                        best = r
                        best_abs = av
            if best < 0:
                break
            if best != pivot_row:
                a[pivot_row], a[best] = a[best], a[pivot_row]
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
            pivot = a[pivot_row][col]
            prow = a[pivot_row]
            cleared = True
            for r in range(pivot_row + 1, m):
                v = a[r][col]
                if v:
                    q = v // pivot
                    if q:
                        arow = a[r]
                        for c in range(col, n):
                            arow[c] -= q * prow[c]
                    if a[r][col]:
                        cleared = False
            if cleared:
                for r in range(pivot_row):
                    q = a[r][col] // pivot
                    if q:
                        arow = a[r]
                        for c in range(col, n):
                            arow[c] -= q * prow[c]
                pivot_row += 1
                break
    return a


def smith_normal_form(rows) -> tuple:
    """Smith normal form diagonal of the m rows of n ints: min(m, n)
    nonnegative values d_1 | d_2 | ... with zeros trailing.

    Row Hermite passes alternate on the matrix and on its transpose until
    it is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979), so the
    Hermite kernel is the only elimination loop.  Termination: after a
    pass the first column is (p, 0, ..., 0).  If p = 0 and the matrix is
    not zero, the next pass's first column is the old first row, which is
    nonzero, so its pivot is positive.  For p > 0 the next pass's first
    pivot is the gcd of the first row, which divides p.  So either p
    strictly decreases, or the first row and column are cleared and stay
    cleared, and the argument repeats on the rest.  One pass then replaces
    each pair d_i, d_j (i < j) of the diagonal by their gcd and lcm, which
    keeps the cokernel: once its pairs are done, d_i is the gcd of the
    entries from i on, so it divides every later one and is 0 only when
    they all are."""
    a = rows
    while True:
        a = hermite_normal_form(a)
        if not any(v for i, row in enumerate(a) for j, v in enumerate(row) if i != j):
            break
        a = list(zip(*a))
    d = [row[t] for t, row in enumerate(a) if t < len(row)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def cokernel_invariants(rows, cols: int) -> tuple:
    """Invariants of Z^cols / (span of the rows, each of cols ints):
    (torsion_invariants, free_rank).

    torsion_invariants lists the Smith diagonal entries that are neither 0
    nor 1, in divisibility order; free_rank counts the quotient's free
    summands (cols minus the number of nonzero diagonal entries).  Smith
    runs on the transpose, so Hermite rows start it with the column pass.
    """
    diagonal = smith_normal_form(list(zip(*rows)))
    torsion = tuple(d for d in diagonal if d > 1)
    free_rank = cols - sum(1 for d in diagonal if d != 0)
    return torsion, free_rank


def last_coordinate_order_of_hnf(h):
    """Order of the last standard basis vector in Z^cols / (row span of h),
    for rows h in Hermite normal form, or None when that order is infinite.

    The order is finite exactly when some row's first nonzero entry sits in
    the last column, and that pivot is the order.  (Any integer combination
    equal to a multiple of e_last cannot involve rows whose pivot lies in an
    earlier column.)  Pivot columns increase, so only the last nonzero row
    can have its pivot there.
    """
    for row in reversed(h):
        if any(row):
            return None if any(row[:-1]) else row[-1]
    return None

