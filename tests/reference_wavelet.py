"""Plain-Python scalar reference for the lifting transform.

Independent of the numpy implementation under test: everything here is
nested lists and explicit index arithmetic, evaluated straight from the
lifting equations with whole-sample symmetric extension.
"""


def analyze_1d(x):
    n = len(x)
    if n == 1:
        return list(x), []
    d = []
    for k in range((n) // 2):
        left = x[2 * k]
        right = x[2 * k + 2] if 2 * k + 2 < n else x[n - 2]
        d.append(x[2 * k + 1] - (left + right) // 2)
    s = []
    for k in range((n + 1) // 2):
        dl = d[k - 1] if k - 1 >= 0 else d[0]
        dr = d[k] if k < len(d) else d[len(d) - 1]
        s.append(x[2 * k] + (dl + dr + 2) // 4)
    return s, d


def synthesize_1d(s, d):
    n = len(s) + len(d)
    if not d:
        return list(s)
    even = []
    for k in range(len(s)):
        dl = d[k - 1] if k - 1 >= 0 else d[0]
        dr = d[k] if k < len(d) else d[len(d) - 1]
        even.append(s[k] - (dl + dr + 2) // 4)
    x = [0] * n
    x[0::2] = even
    for k in range(len(d)):
        left = even[k]
        # for even n the sample past the end mirrors to x[n-2] == even[k]
        right = even[k + 1] if k + 1 < len(even) else even[-1]
        x[2 * k + 1] = d[k] + (left + right) // 2
    return x


def analyze_2d(grid):
    """One level: returns (ll, hl, lh, hh) as nested lists."""
    lows, highs = [], []
    for row in grid:
        s, d = analyze_1d(row)
        lows.append(s)
        highs.append(d)

    def column_pass(mat):
        if not mat or not mat[0]:
            return [r[:] for r in mat], []
        cols_s, cols_d = [], []
        for c in range(len(mat[0])):
            s, d = analyze_1d([mat[r][c] for r in range(len(mat))])
            cols_s.append(s)
            cols_d.append(d)
        top = [[cols_s[c][r] for c in range(len(cols_s))] for r in range(len(cols_s[0]))]
        bot = [[cols_d[c][r] for c in range(len(cols_d))] for r in range(len(cols_d[0]))] if cols_d[0] else []
        return top, bot

    ll, lh = column_pass(lows)
    hl, hh = column_pass(highs) if highs[0] else ([], [])
    return ll, hl, lh, hh


def ll_chain(grid, steps):
    """Iterated single-level LL band: the low-resolution image."""
    cur = [list(r) for r in grid]
    for _ in range(steps):
        cur, _, _, _ = analyze_2d(cur)
    return cur


def synthesize_2d(ll, hl, lh, hh):
    """Invert analyze_2d: columns, then rows. Every band needs a row and a column."""

    def column_pass(top, bot):
        cols = [
            synthesize_1d([r[c] for r in top], [r[c] for r in bot])
            for c in range(len(top[0]))
        ]
        return [[col[r] for col in cols] for r in range(len(top) + len(bot))]

    lows, highs = column_pass(ll, lh), column_pass(hl, hh)
    return [synthesize_1d(s, d) for s, d in zip(lows, highs)]
