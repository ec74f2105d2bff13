"""Free-group tree kernel.

Vertices of the 4-regular tree are freely reduced words over "aAbB"
(capital = inverse letter).  The model is vertex granular: distances are
integers and geodesics are evaluated at integer parameters only.  Boundary
points are eventually periodic infinite reduced words stored as
(prefix, period) pairs, built by `boundary(word, periodic)`.  Every word
the kernel takes or builds is reduced (`point` and `isometry` reduce,
`boundary` validates), so `mul` cancels only where its two words meet.

This module is the T4 entry of the kernel table in `models.KERNELS`; see
`_e2` for the shared function names.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MAX_BINS, UsageError, bin_count

ALPHABET = "aAbB"

BASEPOINT = ""
IDENTITY = ""
RANK_ONE = True  # every axis is contracting
TITS_BALL_TRIVIAL = True


def inv_letter(ch: str) -> str:
    return ch.swapcase()


def reduce_word(word: str) -> str:
    if not isinstance(word, str):
        raise UsageError(f"a word must be a string, not {word!r}")
    out: list[str] = []
    for ch in word:
        if ch not in ALPHABET:
            raise UsageError(f"letter {ch!r} not in alphabet {ALPHABET!r}")
        if out and out[-1] == inv_letter(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


_CANCELLING = ("aA", "Aa", "bB", "Bb")


def is_reduced(word: str) -> bool:
    # strip leaves nothing exactly when every letter is in the alphabet
    return not word.strip(ALPHABET) and not any(p in word for p in _CANCELLING)


def inv_word(word: str) -> str:
    return word.swapcase()[::-1]


def mul(u: str, v: str) -> str:
    """The reduced word of u v for reduced u and v: they cancel only where
    they meet."""
    k = 0
    while k < min(len(u), len(v)) and u[-1 - k] == inv_letter(v[k]):
        k += 1
    return u[:len(u) - k] + v[k:]


def lcp(u: str, v: str) -> int:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


def dist(u: str, v: str) -> int:
    return len(u) + len(v) - 2 * lcp(u, v)


def as_step(t: float) -> int:
    """Integer cast for a tree arclength parameter; rejects fractional values."""
    k = round(t)
    if abs(t - k) > 1e-9:
        raise UsageError("tree geodesics are vertex granular; parameter must be an integer")
    return int(k)


# -- boundary words: (prefix, period) ---------------------------------------

def validate_boundary(prefix: str, period: str) -> tuple[str, str]:
    if not (isinstance(prefix, str) and isinstance(period, str)):
        raise UsageError("a boundary word and its period must be strings")
    if not period:
        raise UsageError("boundary word needs a nonempty periodic tail")
    if not is_reduced(prefix):
        raise UsageError("boundary prefix must be freely reduced")
    if not is_reduced(period):
        raise UsageError("boundary period must be freely reduced")
    if period[0] == inv_letter(period[-1]):
        raise UsageError("boundary period must be cyclically reduced")
    if prefix and prefix[-1] == inv_letter(period[0]):
        raise UsageError("boundary prefix/period junction is not reduced")
    return absorb_prefix(prefix, period)


def absorb_prefix(pre: str, per: str) -> tuple[str, str]:
    """Absorb the prefix letters that already agree with the periodic tail
    of a valid (prefix, period) pair."""
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1] + per[:-1]
    return pre, per


def letter_at(b: tuple[str, str], i: int) -> str:
    prefix, period = b
    if i < len(prefix):
        return prefix[i]
    return period[(i - len(prefix)) % len(period)]


def word_prefix(b: tuple[str, str], n: int) -> str:
    prefix, period = b
    if n <= len(prefix):
        return prefix[:n]
    k = n - len(prefix)
    reps = k // len(period) + 1
    return prefix + (period * reps)[:k]


def separating_prefixes(b1: tuple[str, str], b2: tuple[str, str]) -> tuple[str, str]:
    """Initial words of b1 and b2 that differ unless the ends are equal: the
    tails agree for good once they agree over the lcm of their periods."""
    n = len(b1[0]) + len(b2[0]) + 2 * math.lcm(len(b1[1]), len(b2[1])) + 2
    return word_prefix(b1, n), word_prefix(b2, n)


def boundary_eq(b1: tuple[str, str], b2: tuple[str, str], tol: float = 0.0) -> bool:
    """Exact comparison; the tolerance of the other models does not apply."""
    w1, w2 = separating_prefixes(b1, b2)
    return w1 == w2


def match_len(b: tuple[str, str], word: str) -> int:
    """Number of initial letters of `word` lying on the ray of b from the root."""
    i = 0
    while i < len(word) and word[i] == letter_at(b, i):
        i += 1
    return i


def ray_vertex(x: str, b: tuple[str, str], t: int) -> str:
    m = match_len(b, x)
    up = len(x) - m
    if t <= up:
        return x[: len(x) - t]
    return word_prefix(b, m + (t - up))


def direction(x: str, y: str) -> tuple[str, str]:
    """Boundary word of a ray from x through y (x != y)."""
    m = lcp(x, y)
    if len(y) > m:
        return validate_boundary(y, y[-1])
    # y is an ancestor of x; continue away from x along a canonical letter
    forbidden = {x[len(y)]}
    if y:
        forbidden.add(inv_letter(y[-1]))
    period = next(ch for ch in ALPHABET if ch not in forbidden)
    return validate_boundary(y, period)


def gromov_product(x: str, b1: tuple[str, str], b2: tuple[str, str]) -> float:
    """Length of the common initial segment of the rays from x to b1 and b2.

    The ray from x toward b climbs from x to x[:m], m = match_len(b, x), and
    then descends along b.  Rays with different m part where the shorter
    climb ends.  Rays with the same m descend together until b1 and b2
    differ, which they do within their `separating_prefixes`."""
    w1, w2 = separating_prefixes(b1, b2)
    if w1 == w2:
        return math.inf
    m1, m2 = match_len(b1, x), match_len(b2, x)
    if m1 != m2:
        return float(len(x) - max(m1, m2))
    return float(len(x) - 2 * m1 + lcp(w1, w2))


def boundary_chart(x: str, b: tuple[str, str], r0: float) -> tuple[str, tuple[str, str]]:
    """The visual metric is exp(-(b1|b2)_x), read off the rays from x.  The
    chordal metric of the continuous models is not separating here because
    projections are vertex granular, so r0 is unused."""
    return x, b


def chart_dist(p: tuple[str, tuple[str, str]], q: tuple[str, tuple[str, str]]) -> float:
    g = gromov_product(p[0], p[1], q[1])
    return 0.0 if math.isinf(g) else math.exp(-g)


def boundary_action(w: str, b: tuple[str, str]) -> tuple[str, str]:
    stack = list(w)
    k = 0
    while stack and stack[-1] == inv_letter(letter_at(b, k)):
        stack.pop()
        k += 1
    prefix, period = b
    if k <= len(prefix):
        tail_prefix = prefix[k:]
    else:
        j = (k - len(prefix)) % len(period)
        tail_prefix = ""
        period = period[j:] + period[:j]
    # reduced by construction: the letter left on the stack does not cancel
    # the next letter of the ray
    return absorb_prefix("".join(stack) + tail_prefix, period)


def cyclic_reduce(g: str) -> tuple[str, str]:
    """Write a reduced word as u c u^{-1} with c cyclically reduced."""
    u: list[str] = []
    w = g
    while len(w) >= 2 and w[0] == inv_letter(w[-1]):
        u.append(w[0])
        w = w[1:-1]
    return "".join(u), w


def horofunction(b: tuple[str, str], x: str, z: str) -> int:
    return (len(z) - 2 * match_len(b, z)) - (len(x) - 2 * match_len(b, x))


# -- values and codecs --------------------------------------------------------

point = reduce_word
isometry = reduce_word


def boundary(word: str, periodic: str | None = None) -> tuple[str, str]:
    # a bare word denotes the canonical continuation of its last letter
    return validate_boundary(word, (word[-1:] or "a") if periodic is None else periodic)


def isometry_key(g: str, r):
    return ("T4", g)


def boundary_to_json(b: tuple[str, str]) -> dict:
    return {"word": b[0], "periodic": b[1]}


# -- geometry at integer parameters -------------------------------------------

def ray_point(x: str, b: tuple[str, str], t: float) -> str:
    return ray_vertex(x, b, as_step(t))


def busemann_limit(b: tuple[str, str], x: str, z: str, t: float) -> float:
    """d(ray(t), z) - t.  By step |x| + |z| the ray is deeper than every
    letter z shares with it, and from there on the difference stays put, so
    the ray is walked no further."""
    k = min(as_step(t), len(x) + len(z))
    return float(dist(ray_vertex(x, b, k), z) - k)


# -- isometries: data = reduced word acting by left multiplication ------------

apply = mul
apply_boundary = boundary_action
compose = mul
inverse = inv_word


def classify(g: str, tol: float) -> tuple[str, float]:
    if not g:
        return "identity", 0.0
    _, core = cyclic_reduce(g)
    return "axial", float(len(core))


def axis_endpoints(g: str, tol: float):
    u, c = cyclic_reduce(g)
    plus = validate_boundary(u, c)
    minus = validate_boundary(u, inv_word(c))
    return minus, plus


def independent(g: str, h: str) -> bool:
    """True when the axial g and h share no fixed point: when they do not commute."""
    return mul(g, h) != mul(h, g)


# -- boundary -----------------------------------------------------------------

def tits(b1: tuple[str, str], b2: tuple[str, str], tol: float) -> float:
    return 0.0 if boundary_eq(b1, b2) else math.inf


# -- samplers -----------------------------------------------------------------

# the letters that may follow a word ending in each letter (any letter after
# the empty word), in ALPHABET order
_NEXT_LETTERS = {"": ALPHABET, **{ch: ALPHABET.replace(inv_letter(ch), "") for ch in ALPHABET}}


def random_word(rng, length: int, start: str = "") -> str:
    """`start` extended by `length` uniformly drawn non-cancelling letters."""
    out = [start]
    last = start[-1:]
    for _ in range(length):
        choices = _NEXT_LETTERS[last]
        last = choices[int(rng.integers(0, len(choices)))]
        out.append(last)
    return "".join(out)


def random_point(rng) -> str:
    return random_word(rng, int(rng.integers(0, 8)))


def random_isometry(rng) -> str:
    return random_word(rng, int(rng.integers(1, 7)))


def random_boundary(rng) -> tuple[str, str]:
    prefix = random_word(rng, int(rng.integers(4, 12)))
    return boundary(prefix, random_word(rng, 1, prefix)[-1])


# -- hitting bins: the cylinders of the reduced words of one length -------------

def bin_params(length: int = 2) -> dict:
    """One bin per reduced word of the length: 4 3^(length - 1), or 1."""
    length = int(length)
    if length < 0:
        raise UsageError("a cylinder length must be nonnegative")
    # once length passes MAX_BINS's bit length, 3^length > 2^length > MAX_BINS,
    # so the power is never taken past that length
    count = 4 * 3 ** min(length, MAX_BINS.bit_length()) // 3
    return {"kind": "cylinder", "length": length, "count": bin_count(count)}


# each letter's position among the letters that may follow the previous one
_NEXT_POSITION = {last: {ch: i for i, ch in enumerate(choices)}
                  for last, choices in _NEXT_LETTERS.items()}


def bin_index(params, b: tuple[str, str]) -> int:
    # the words are numbered in mixed radix: a digit of 4 first letters (which
    # starts from index 0, so it is never scaled), then one of 3 per letter
    index, last = 0, ""
    for ch in word_prefix(b, params["length"]):
        index = 3 * index + _NEXT_POSITION[last][ch]
        last = ch
    return index


def bin_sample(params, i: int, rng) -> tuple[str, str]:
    # the word of bin i, read back from the digits that bin_index writes
    length, word = params["length"], ""
    for k in range(length):
        digit = i // 3 ** (length - 1 - k)
        word += _NEXT_LETTERS[word[-1:]][digit % 3 if k else digit]
    return boundary(word, random_word(rng, 1, word)[-1])


# -- orbit walker ---------------------------------------------------------------

def orbit(atoms, base: str, increments, stored, xi=None):
    """The left product Z_k = Z_{k-1} w_k, kept as x^{-1} Z_k x, a reduced
    word on a letter stack: the distances d(Z_k x, x) at the steps k of the
    increasing sequence `stored`, and the reads at step 0 and at those
    steps: the words, or with a boundary point `xi` the horofunction values
    h_xi(Z_k x) with basepoint x.  These equal h_eta(x^{-1} Z_k x) with
    basepoint the root for eta = x^{-1} xi, i.e. |stack| - 2 `matched`,
    where `matched` counts the initial letters of the stack on the ray of
    eta: a pop below it lowers it, and a push at it extends it when the
    letter is the ray's next one, so no word is joined."""
    conj = [[(ch, inv_letter(ch)) for ch in mul(mul(inv_word(base), g), base)]
            for g in atoms]
    eta = None if xi is None else boundary_action(inv_word(base), xi)
    stack: list[str] = []
    matched = -1 if xi is None else 0  # -1 is no stack height: nothing is matched
    dists, reads = [], ["" if xi is None else 0.0]
    ahead = iter(stored)
    due = next(ahead, 0)
    for k, i in enumerate(increments, start=1):
        for ch, inv in conj[i]:
            if stack and stack[-1] == inv:
                stack.pop()
                if len(stack) < matched:
                    matched -= 1
            else:
                if matched == len(stack) and ch == letter_at(eta, matched):
                    matched += 1
                stack.append(ch)
        if k == due:
            dists.append(float(len(stack)))
            reads.append("".join(stack) if xi is None else float(len(stack) - 2 * matched))
            due = next(ahead, 0)
    return dists, reads


# Below this many paths, m runs of `orbit` beat one `orbit_paths` (n = 2000).
BATCH_MIN_PATHS = 32


def orbit_paths(atoms, base: str, increments):
    """`orbit` for m paths at once, read at the last step only: the terminal
    distances d(Z_n x, x) and words of the columns of the (n, m) array
    `increments`, n >= 1.  Path p keeps its letters as ASCII codes on row p
    of one flat stack, after a 0 that no letter cancels, with `top[p]` the
    index of its last letter.  A letter cancels the last letter of the rows
    where that is its inverse (the other case, code ^ 32) and is pushed on
    the others; the shorter conjugated atoms are padded with 0, no letter."""
    conj = [mul(mul(inv_word(base), g), base).encode() for g in atoms]
    width = max(map(len, conj))
    letters = np.zeros((width, len(conj)), dtype=np.uint8)
    for i, word in enumerate(conj):
        letters[:len(word), i] = np.frombuffer(word, dtype=np.uint8)
    n, m = increments.shape
    row = n * width + 2
    flat = np.zeros(m * row, dtype=np.uint8)
    start = np.arange(m) * row
    top = start.copy()
    for inc in increments:
        for ch in letters.take(inc, axis=1):
            cancel = flat.take(top) == ch ^ 32
            flat[top + 1] = ch
            top += ch > 0
            top -= 2 * cancel  # a cancelling letter was counted as pushed
    words = [flat[a + 1:b + 1].tobytes().decode() for a, b in zip(start.tolist(), top.tolist())]
    return [float(len(w)) for w in words], words


def snapshot_point(snap: str, base: str) -> str:
    return mul(base, snap)


def snapshot_boundary(snap: str, base: str, b: tuple[str, str]) -> tuple[str, str]:
    return boundary_action(mul(mul(base, snap), inv_word(base)), b)


def snapshot_horofunction(snap: str, base: str, b: tuple[str, str]) -> int:
    return horofunction(b, base, snapshot_point(snap, base))


def tracking_gaps(atoms, increments, snaps, base: str, lam: float) -> dict:
    """d(gamma(lam k), Z_k x) for the snapshots {k: snapshot}, along the ray
    toward the last snapshot's orbit point, which is not x, at the rounded
    parameter lam k."""
    b = direction(base, snapshot_point(snaps[max(snaps)], base))
    return {k: float(dist(ray_point(base, b, float(round(lam * k))), snapshot_point(s, base)))
            for k, s in snaps.items()}
