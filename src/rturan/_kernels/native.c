/* Compiled search kernels over flat int arrays, and the CPython glue that
 * makes this file the extension module rturan._kernels._native.
 *
 * native.py passes each call's inputs to pure's checks, then to the glue at
 * the bottom, which reads them, calls the kernel and builds its result.
 * pure.py is the reference: each kernel returns exactly what its pure twin
 * does, node counts and the xorshift64* sample stream included.
 *
 * A list of int lists (the earlier edges each edge conflicts with, the host
 * edges of each pattern copy) arrives as two arrays, flattened once by
 * pure.Packed: row r is idx[off[r]] .. idx[off[r + 1] - 1].  The code
 * trusts them: pure's checks have refused wrong counts, indices outside
 * 0..m-1 and, for the avoider, a copy with no edge before any call.
 *
 * The caller passes every output and work buffer too (the sampler's options
 * and marks included), so no kernel allocates; the canonical form's
 * buffers, sized for its 64-vertex cap, are on the stack.
 */
/* Python.h comes before the standard headers, as the C API asks */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Number of edges of copy `row` whose color occurs once in the copy. */
static int unique_count(const int *colors, const int *emb_off, const int *emb,
                        int row)
{
    int uniq = 0;
    for (int i = emb_off[row]; i < emb_off[row + 1]; i++) {
        int same = 0;
        for (int j = emb_off[row]; j < emb_off[row + 1]; j++)
            same += colors[emb[j]] == colors[emb[i]];
        uniq += same == 1;
    }
    return uniq;
}

static int satisfied(const int *colors, const int *emb_off, const int *emb,
                     int row, int k, int exactly)
{
    int uniq = unique_count(colors, emb_off, emb, row);
    return exactly ? uniq == k : uniq >= k;
}

static int allowed(const int *colors, const int *conf_off, const int *conf,
                   int i, int c)
{
    for (int j = conf_off[i]; j < conf_off[i + 1]; j++)
        if (colors[conf[j]] == c)
            return 0;
    return 1;
}

typedef struct {
    int m, k, exactly, max_colors;
    const int *conf_off, *conf, *emb_off, *emb, *last_off, *last;
    long long limit, nodes;
    int *colors;
} search;

/* Canonical DFS from edge i with colors 0..used-1 taken so far, as in
 * pure.canonical_dfs.  Returns 1 when colors holds an avoiding coloring,
 * 0 when the subtree has none, -1 when the node budget tripped. */
static int avoid(search *s, int i, int used)
{
    if (i == s->m)
        return 1;
    int top = used + 1 < s->max_colors ? used + 1 : s->max_colors;
    for (int c = 0; c < top; c++) {
        if (!allowed(s->colors, s->conf_off, s->conf, i, c))
            continue;
        if (s->limit >= 0 && s->nodes >= s->limit)
            return -1;  /* *nodes reports the nodes completed: the budget */
        s->nodes++;
        s->colors[i] = c;
        int cut = 0;
        for (int j = s->last_off[i]; j < s->last_off[i + 1] && !cut; j++)
            cut = satisfied(s->colors, s->emb_off, s->emb, s->last[j],
                            s->k, s->exactly);
        int found = cut ? 0 : avoid(s, i + 1, c < used ? used : c + 1);
        if (found)
            return found;
        s->colors[i] = -1;
    }
    return 0;
}

/* Largest edge of copy `row`, which must have an edge. */
static int largest(const int *emb_off, const int *emb, int row)
{
    int top = emb[emb_off[row]];
    for (int j = emb_off[row] + 1; j < emb_off[row + 1]; j++)
        if (emb[j] > top)
            top = emb[j];
    return top;
}

/* pure._embeddings_by_last_edge as two arrays, by a counting sort: the
 * copies whose largest edge is i, in row order, are last[last_off[i]] ..
 * last[last_off[i + 1] - 1].  A copy with no edge is in no group.  last_off
 * holds m + 1 ints, last one per copy. */
static void group_by_last(int m, int copies, const int *emb_off, const int *emb,
                          int *last_off, int *last)
{
    for (int i = 0; i <= m; i++)
        last_off[i] = 0;
    for (int r = 0; r < copies; r++)
        if (emb_off[r] < emb_off[r + 1])
            last_off[largest(emb_off, emb, r) + 1]++;
    for (int i = 0; i < m; i++)
        last_off[i + 1] += last_off[i];
    /* each group's start moves to its end, which is the next group's start */
    for (int r = 0; r < copies; r++)
        if (emb_off[r] < emb_off[r + 1])
            last[last_off[largest(emb_off, emb, r)]++] = r;
    for (int i = m; i > 0; i--)
        last_off[i] = last_off[i - 1];
    last_off[0] = 0;
}

/* pure.restrict: the m-edge host's rows restricted to the n_keep edges in
 * keep (ascending).  Edge keep[j] becomes edge j, each conflict list keeps
 * its kept edges, renumbered, and the copies whose edges are all kept stay,
 * renumbered, in row order.  The restricted rows go to r_conf_off (n_keep
 * + 1 ints), r_conf, r_emb_off (copies + 1) and r_emb, each at most as long
 * as the host's; to holds m ints.  Returns the number of copies kept. */
static int restrict_rows(int m, const int *conf_off, const int *conf,
                         int copies, const int *emb_off, const int *emb,
                         int n_keep, const int *keep, int *to,
                         int *r_conf_off, int *r_conf, int *r_emb_off, int *r_emb)
{
    for (int i = 0; i < m; i++)
        to[i] = -1;
    for (int j = 0; j < n_keep; j++)
        to[keep[j]] = j;
    r_conf_off[0] = 0;
    for (int j = 0; j < n_keep; j++) {
        int out = r_conf_off[j];
        for (int t = conf_off[keep[j]]; t < conf_off[keep[j] + 1]; t++)
            if (to[conf[t]] >= 0)
                r_conf[out++] = to[conf[t]];
        r_conf_off[j + 1] = out;
    }
    int kept = 0;
    r_emb_off[0] = 0;
    for (int r = 0; r < copies; r++) {
        int out = r_emb_off[kept], t = emb_off[r];
        while (t < emb_off[r + 1] && to[emb[t]] >= 0)
            r_emb[out++] = to[emb[t++]];
        if (t == emb_off[r + 1])  /* every edge kept */
            r_emb_off[++kept] = out;
    }
    return kept;
}

/* pure.find_avoiding_coloring; a negative limit means no budget.  Returns
 * 1 found (in colors), 0 none, -1 budget exhausted; *nodes gets the count.
 * keep, when not NULL, lists n_keep edges of the m-edge host in ascending
 * order, and the search runs on their subgraph (restrict_rows), colors
 * indexed by keep's positions; NULL keeps every edge.  work holds
 * m + 1 + copies ints without keep, and 2m + 2 + copies + conf_off[m] +
 * emb_off[copies] more with it. */
int rt_find_avoiding(int m, const int *conf_off, const int *conf,
                     int copies, const int *emb_off, const int *emb,
                     int n_keep, const int *keep,
                     int k, int exactly, int max_colors, long long limit,
                     int *colors, long long *nodes, int *work)
{
    if (keep) {
        int *to = work, *r_conf_off = to + m, *r_conf = r_conf_off + m + 1;
        int *r_emb_off = r_conf + conf_off[m], *r_emb = r_emb_off + copies + 1;
        work = r_emb + emb_off[copies];
        copies = restrict_rows(m, conf_off, conf, copies, emb_off, emb, n_keep,
                               keep, to, r_conf_off, r_conf, r_emb_off, r_emb);
        m = n_keep;
        conf_off = r_conf_off;
        conf = r_conf;
        emb_off = r_emb_off;
        emb = r_emb;
    }
    int *last_off = work, *last = work + m + 1;
    group_by_last(m, copies, emb_off, emb, last_off, last);
    search s = {m, k, exactly, max_colors, conf_off, conf, emb_off, emb,
                last_off, last, limit, 0, colors};
    for (int i = 0; i < m; i++)
        colors[i] = -1;
    int found = avoid(&s, 0, 0);
    *nodes = s.nodes;
    return found;
}

/* One step of the xorshift64* state, without its output multiply. */
static uint64_t step(uint64_t x)
{
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x;
}

static uint64_t next_u64(uint64_t *state)
{
    *state = step(*state);
    return *state * 0x2545F4914F6CDD1DULL;
}

/* pure.sample_and_check from the (nonzero) xorshift64* state.  Returns the
 * index of the first sample with no satisfied copy, left in colors, or -1;
 * counts gets (checked, rainbow_skipped).  options holds m + 1 ints, marks
 * m + 1 zeroed uint64s and work m + 1 + n_emb ints.
 *
 * Each edge's choices are found by mark and scan: marks[c + 1] = stamp for
 * every color c its conflict edges hold (an uncolored one, which a conflict
 * list naming a later edge or the edge itself reads, marks slot 0), then one
 * pass over c < used lists the unmarked colors in ascending order, as pure
 * does.  stamp counts the edges colored in this call, starting above the
 * zeroed buffer; 64 bits cannot wrap in any feasible run, so a stamp never
 * repeats and no mark left by an earlier edge or sample reads as current.
 *
 * Once edge i is colored, the copies whose largest edge is i (group_by_last)
 * are complete and are checked.  A satisfied copy settles the sample once it
 * cannot be skipped as rainbow: a color has repeated, or skip_rainbow is off.
 * The rest of a settled sample is not colored, but the state still steps
 * once per edge left, so the stream is the one a full draw takes.  A copy
 * with no edge is in no group; it is satisfied before edge 0, iff its
 * unique count of 0 meets k. */
long long rt_sample_and_check(int m, const int *conf_off, const int *conf,
                              int n_emb, const int *emb_off, const int *emb,
                              int k, int exactly, long long n_samples,
                              uint64_t state, int skip_rainbow,
                              int *colors, int *options, uint64_t *marks,
                              long long *counts, int *work)
{
    int *last_off = work, *last = work + m + 1, edgeless_hit = 0;
    group_by_last(m, n_emb, emb_off, emb, last_off, last);
    for (int r = 0; r < n_emb && !edgeless_hit; r++)
        edgeless_hit = emb_off[r] == emb_off[r + 1] && (exactly ? k == 0 : k <= 0);
    uint64_t stamp = 0;
    counts[0] = counts[1] = 0;
    for (long long s = 0; s < n_samples; s++) {
        int used = 0, hit = edgeless_hit, i = 0;
        for (int e = 0; e < m; e++)  /* uncolored edges read -1, as in pure */
            colors[e] = -1;
        for (; i < m && !(hit && (used < i || !skip_rainbow)); i++) {
            stamp++;
            for (int j = conf_off[i]; j < conf_off[i + 1]; j++)
                marks[colors[conf[j]] + 1] = stamp;
            int n_opt = 0;
            for (int c = 0; c < used; c++)
                if (marks[c + 1] != stamp)
                    options[n_opt++] = c;
            options[n_opt++] = used;  /* a fresh color is always an option */
            colors[i] = options[(next_u64(&state) >> 33) % (uint64_t)n_opt];
            used += colors[i] == used;
            for (int j = last_off[i]; j < last_off[i + 1] && !hit; j++)
                hit = satisfied(colors, emb_off, emb, last[j], k, exactly);
        }
        for (; i < m; i++)  /* settled: the draws of the edges left */
            state = step(state);
        if (skip_rainbow && used == m) {
            counts[1]++;
            continue;
        }
        counts[0]++;
        if (!hit)
            return s;
    }
    return -1;
}

void rt_unique_counts(const int *colors, int n_emb, const int *emb_off,
                      const int *emb, int *out)
{
    for (int r = 0; r < n_emb; r++)
        out[r] = unique_count(colors, emb_off, emb, r);
}

/* pure.canonical_key over n <= 64 vertices, one adjacency bit mask each.
 *
 * A partition is lab, the vertices in cell order, cut at start: cell c is
 * lab[start[c]] .. lab[start[c + 1] - 1], and start[cells] = n.  A leaf's
 * code has bit a * n + b set for each edge between the vertices at positions
 * a and b, in (n * n + 63) / 64 words, word 0 the least significant; the key
 * is the largest code over the leaves, compared as one integer. */
#define RT_MAXN 64  /* pure.MAX_KEY_VERTICES */

static int popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* pure._equitable: refines the partition in place from the one splitter
 * given and returns the cell count.  A vertex's signature is its neighbor
 * count in each splitter.  Each cell is stably sorted by signature, compared
 * as byte strings (which orders counts 0..64 as pure orders its tuples), and
 * cut where the signature changes; every piece of a cut cell but the last
 * is a splitter of the next round. */
static int equitable(const uint64_t *adj, int n, int *lab, int *start,
                     int cells, uint64_t splitter)
{
    uint64_t split[RT_MAXN], fresh[RT_MAXN];
    unsigned char sig[RT_MAXN][RT_MAXN];
    int cut[RT_MAXN + 1];
    int n_split = 1;
    split[0] = splitter;
    while (n_split) {
        int out = 0, n_fresh = 0;
        for (int c = 0; c < cells; c++) {
            int s = start[c], e = start[c + 1];
            cut[out++] = s;
            if (e - s == 1)
                continue;
            for (int p = s; p < e; p++)
                for (int j = 0; j < n_split; j++)
                    sig[lab[p]][j] = (unsigned char)popcount64(adj[lab[p]] & split[j]);
            for (int p = s + 1; p < e; p++) {  /* stable insertion sort */
                int v = lab[p], q = p;
                for (; q > s && memcmp(sig[lab[q - 1]], sig[v], n_split) > 0; q--)
                    lab[q] = lab[q - 1];
                lab[q] = v;
            }
            uint64_t piece = 1ULL << lab[s];
            for (int p = s + 1; p < e; p++) {
                if (memcmp(sig[lab[p - 1]], sig[lab[p]], n_split)) {
                    cut[out++] = p;
                    fresh[n_fresh++] = piece;
                    piece = 0;
                }
                piece |= 1ULL << lab[p];
            }
        }
        cut[out] = n;
        memcpy(start, cut, (out + 1) * sizeof *cut);
        cells = out;
        memcpy(split, fresh, n_fresh * sizeof *fresh);
        n_split = n_fresh;
    }
    return cells;
}

typedef struct {
    int n, words;
    const uint64_t *adj;
    uint64_t *best, *code;
} canon;

/* pure.canonical_key's search: refine, then individualise in turn each
 * vertex of the first cell with more than one, skipping a vertex that is a
 * twin (N(u) - {v} == N(v) - {u}) of one already tried. */
static void canon_search(canon *cs, const int *lab_in, const int *start_in,
                         int cells, uint64_t splitter)
{
    int n = cs->n, lab[RT_MAXN], start[RT_MAXN + 1];
    const uint64_t *adj = cs->adj;
    memcpy(lab, lab_in, n * sizeof *lab);
    memcpy(start, start_in, (cells + 1) * sizeof *start);
    cells = equitable(adj, n, lab, start, cells, splitter);
    int c = 0;
    while (c < cells && start[c + 1] - start[c] == 1)
        c++;
    if (c == cells) {  /* discrete: a leaf */
        int pos[RT_MAXN];
        for (int p = 0; p < n; p++)
            pos[lab[p]] = p;
        memset(cs->code, 0, cs->words * sizeof *cs->code);
        for (int v = 0; v < n; v++)
            for (int w = 0; w < n; w++)
                if (adj[v] >> w & 1) {
                    int bit = pos[v] * n + pos[w];
                    cs->code[bit >> 6] |= 1ULL << (bit & 63);
                }
        int w = cs->words - 1;
        while (w >= 0 && cs->code[w] == cs->best[w])
            w--;
        if (w >= 0 && cs->code[w] > cs->best[w])
            memcpy(cs->best, cs->code, cs->words * sizeof *cs->code);
        return;
    }
    int s = start[c], e = start[c + 1], tried[RT_MAXN], n_tried = 0;
    int child[RT_MAXN], child_start[RT_MAXN + 1];
    memcpy(child, lab, n * sizeof *lab);
    memcpy(child_start, start, (c + 1) * sizeof *start);
    memcpy(child_start + c + 2, start + c + 1, (cells - c) * sizeof *start);
    child_start[c + 1] = s + 1;
    for (int p = s; p < e; p++) {
        int v = lab[p], twin = 0;
        for (int t = 0; t < n_tried && !twin; t++) {
            int u = tried[t];
            twin = (adj[v] & ~(1ULL << u)) == (adj[u] & ~(1ULL << v));
        }
        if (twin)
            continue;
        tried[n_tried++] = v;
        /* v alone, then the rest of its cell in order */
        child[s] = v;
        for (int q = s, r = s + 1; q < e; q++)
            if (lab[q] != v)
                child[r++] = lab[q];
        canon_search(cs, child, child_start, cells + 1, 1ULL << v);
    }
}

/* pure.canonical_key(n, edges) for 0 <= n <= 64, the m edges given as 2m
 * endpoints.  Writes the key to key as (n * n + 63) / 64 words of 8
 * little-endian bytes, least significant word first.  Returns 0, or -1 (key
 * untouched) when an endpoint is outside 0..n-1. */
int rt_canonical_key(int n, int m, const int *edges, unsigned char *key)
{
    uint64_t adj[RT_MAXN], best[RT_MAXN], code[RT_MAXN];
    for (int v = 0; v < n; v++)
        adj[v] = 0;
    for (int i = 0; i < 2 * m; i += 2) {
        int u = edges[i], v = edges[i + 1];
        if (u < 0 || u >= n || v < 0 || v >= n)
            return -1;
        adj[u] |= 1ULL << v;
        adj[v] |= 1ULL << u;
    }
    /* best starts at 0, where pure starts at -1: every code is at least 0,
     * so the largest is the same */
    canon cs = {n, (n * n + 63) / 64, adj, best, code};
    memset(best, 0, cs.words * sizeof *best);
    int lab[RT_MAXN], start[2] = {0, n};
    for (int v = 0; v < n; v++)
        lab[v] = v;
    canon_search(&cs, lab, start, n > 0, n < 64 ? (1ULL << n) - 1 : ~0ULL);
    for (int b = 0; b < 8 * cs.words; b++)
        key[b] = (unsigned char)(best[b >> 3] >> (8 * (b & 7)));
    return 0;
}

/* ---- CPython glue ----
 *
 * One METH_FASTCALL function per kernel, each called by its native.py twin
 * with positional arguments only.  A Packed table's off and idx bytes
 * arrive by the buffer protocol, with no copy, and its row count is the
 * length of off less one.  keep, the colors of unique_counts and
 * canonical_key's edges are read from their sequences of ints.  k, the
 * color cap, the budget and the sample count are clamped to the C integer
 * that holds them: the kernels only compare them with counts far inside
 * that range, so clamping changes no result.  Work arrays come from
 * PyMem_Malloc.  The avoider and the sampler run without the GIL; every
 * input they read is copied or immutable bytes by then. */

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", name, want,
                 nargs);
    return 0;
}

/* obj clamped to lo..hi; -1 with an exception set when obj is no int. */
static int clamp(PyObject *obj, long long lo, long long hi, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && !overflow && PyErr_Occurred())
        return -1;
    *out = overflow > 0 || v > hi ? hi : overflow < 0 || v < lo ? lo : v;
    return 0;
}

static int clamp_int(PyObject *obj, int *out)
{
    long long v;
    if (clamp(obj, INT_MIN, INT_MAX, &v))
        return -1;
    *out = (int)v;
    return 0;
}

/* A Packed table: its off and idx buffers, and rows = len(off) - 1. */
typedef struct {
    Py_buffer off, idx;
    int rows;
} table;

static const int *offsets(const table *t) { return t->off.buf; }
static const int *indices(const table *t) { return t->idx.buf; }

static void release_table(table *t)
{
    if (t->idx.obj)
        PyBuffer_Release(&t->idx);
    if (t->off.obj)
        PyBuffer_Release(&t->off);
}

/* Reads a table from its off and idx; -1 with an exception set (and t
 * released) unless off holds 1..INT_MAX C ints and idx every index they
 * reach. */
static int get_table(PyObject *off, PyObject *idx, table *t)
{
    t->off.obj = t->idx.obj = NULL;
    if (PyObject_GetBuffer(off, &t->off, PyBUF_SIMPLE) ||
        PyObject_GetBuffer(idx, &t->idx, PyBUF_SIMPLE)) {
        release_table(t);
        return -1;
    }
    Py_ssize_t n_off = t->off.len / (Py_ssize_t)sizeof(int);
    if (n_off < 1 || n_off > INT_MAX ||
        offsets(t)[n_off - 1] > t->idx.len / (Py_ssize_t)sizeof(int)) {
        release_table(t);
        PyErr_SetString(PyExc_ValueError, "malformed packed table");
        return -1;
    }
    t->rows = (int)n_off - 1;
    return 0;
}

/* The conflict table from args[0] and args[1], the copy table from args[2]
 * and args[3]; -1 with an exception set, and neither held, on failure. */
static int get_tables(PyObject *const *args, table *conf, table *emb)
{
    if (get_table(args[0], args[1], conf))
        return -1;
    if (get_table(args[2], args[3], emb)) {
        release_table(conf);
        return -1;
    }
    return 0;
}

/* The n ints of the PySequence_Fast seq into out; -1 with an exception set
 * if one is no int or lies outside a C int. */
static int read_ints(PyObject *seq, Py_ssize_t n, int *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < INT_MIN || v > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "value past a C int");
            return -1;
        }
        out[i] = (int)v;
    }
    return 0;
}

static PyObject *int_list(const int *values, int n)
{
    PyObject *list = PyList_New(n);
    for (int i = 0; list && i < n; i++) {
        PyObject *v = PyLong_FromLong(values[i]);
        if (!v)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, v);
    }
    return list;
}

/* find_avoiding(conf_off, conf_idx, emb_off, emb_idx, keep, k, exactly,
 * max_colors, budget) -> (colors or None, nodes_visited, exhausted), as
 * pure.find_avoiding_coloring; keep and budget may be None. */
static PyObject *py_find_avoiding(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    (void)self;
    int k, exactly, max_colors;
    long long limit = -1;
    PyObject *keep = NULL;
    if (!nargs_ok("find_avoiding", nargs, 9) || clamp_int(args[5], &k) ||
        (exactly = PyObject_IsTrue(args[6])) < 0 || clamp_int(args[7], &max_colors) ||
        (args[8] != Py_None && clamp(args[8], LLONG_MIN, LLONG_MAX, &limit)) ||
        (args[4] != Py_None && !(keep = PySequence_Fast(args[4], "keep must be a sequence"))))
        return NULL;
    table conf, emb;
    if (get_tables(args, &conf, &emb)) {
        Py_XDECREF(keep);
        return NULL;
    }
    int m = conf.rows, copies = emb.rows;
    int n_keep = keep ? (int)PySequence_Fast_GET_SIZE(keep) : m;
    size_t work = (size_t)m + 1 + copies;
    if (keep)
        work += 2 * (size_t)m + 2 + copies + offsets(&conf)[m] + offsets(&emb)[copies];
    /* the kept edges, the colors, then the kernel's work array */
    int *buf = PyMem_Malloc(((keep ? n_keep : 0) + (size_t)n_keep + work) * sizeof(int));
    PyObject *result = NULL;
    if (!buf) {
        PyErr_NoMemory();
    } else if (!keep || !read_ints(keep, n_keep, buf)) {
        int *kept = keep ? buf : NULL, *colors = buf + (keep ? n_keep : 0);
        long long nodes;
        int found;
        Py_BEGIN_ALLOW_THREADS
        found = rt_find_avoiding(m, offsets(&conf), indices(&conf), copies,
                                 offsets(&emb), indices(&emb), n_keep, kept, k,
                                 exactly, max_colors, limit, colors, &nodes,
                                 colors + n_keep);
        Py_END_ALLOW_THREADS
        PyObject *got = found == 1 ? int_list(colors, n_keep) : Py_NewRef(Py_None);
        if (got)
            result = Py_BuildValue("(NLO)", got, nodes, found >= 0 ? Py_True : Py_False);
    }
    PyMem_Free(buf);
    Py_XDECREF(keep);
    release_table(&emb);
    release_table(&conf);
    return result;
}

/* sample_and_check(conf_off, conf_idx, emb_off, emb_idx, k, exactly,
 * num_samples, state, skip_rainbow) -> (checked, rainbow_skipped,
 * counterexample, sample_index), as pure.sample_and_check from the
 * xorshift64* state its seed gives; the last two are None when every
 * sample has a satisfied copy. */
static PyObject *py_sample_and_check(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    (void)self;
    int k, exactly, skip_rainbow;
    long long n_samples;
    unsigned long long state;
    if (!nargs_ok("sample_and_check", nargs, 9) || clamp_int(args[4], &k) ||
        (exactly = PyObject_IsTrue(args[5])) < 0 ||
        clamp(args[6], LLONG_MIN, LLONG_MAX, &n_samples) ||
        ((state = PyLong_AsUnsignedLongLong(args[7])) == (unsigned long long)-1 &&
         PyErr_Occurred()) ||
        (skip_rainbow = PyObject_IsTrue(args[8])) < 0)
        return NULL;
    table conf, emb;
    if (get_tables(args, &conf, &emb))
        return NULL;
    int m = conf.rows, n_emb = emb.rows;
    /* the colors, the options, then the kernel's work array */
    int *buf = PyMem_Malloc(((size_t)3 * m + 2 + n_emb) * sizeof(int));
    uint64_t *marks = PyMem_Calloc((size_t)m + 1, sizeof(uint64_t));
    PyObject *result = NULL;
    if (!buf || !marks) {
        PyErr_NoMemory();
    } else {
        long long counts[2], index;
        Py_BEGIN_ALLOW_THREADS
        index = rt_sample_and_check(m, offsets(&conf), indices(&conf), n_emb,
                                    offsets(&emb), indices(&emb), k, exactly,
                                    n_samples, state, skip_rainbow, buf, buf + m,
                                    marks, counts, buf + 2 * m + 1);
        Py_END_ALLOW_THREADS
        PyObject *colors = index >= 0 ? int_list(buf, m) : NULL;
        if (index < 0)
            result = Py_BuildValue("(LLOO)", counts[0], counts[1], Py_None, Py_None);
        else if (colors)
            result = Py_BuildValue("(LLNL)", counts[0], counts[1], colors, index);
    }
    PyMem_Free(marks);
    PyMem_Free(buf);
    release_table(&emb);
    release_table(&conf);
    return result;
}

/* unique_counts(colors, emb_off, emb_idx) -> each copy's unique-edge count,
 * as pure.unique_counts; the colors must fit C ints. */
static PyObject *py_unique_counts(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    (void)self;
    PyObject *seq;
    if (!nargs_ok("unique_counts", nargs, 3) ||
        !(seq = PySequence_Fast(args[0], "colors must be a sequence")))
        return NULL;
    table emb;
    if (get_table(args[1], args[2], &emb)) {
        Py_DECREF(seq);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    /* the colors, then the counts */
    int *buf = PyMem_Malloc(((size_t)n + emb.rows) * sizeof(int));
    PyObject *result = NULL;
    if (!buf) {
        PyErr_NoMemory();
    } else if (!read_ints(seq, n, buf)) {
        rt_unique_counts(buf, emb.rows, offsets(&emb), indices(&emb), buf + n);
        result = int_list(buf + n, emb.rows);
    }
    PyMem_Free(buf);
    release_table(&emb);
    Py_DECREF(seq);
    return result;
}

/* Reads the edge obj's endpoints into ends: 0, 1 when one lies outside
 * 0..n-1, or -1 with an exception set when obj is no pair of ints. */
static int read_edge(PyObject *obj, long n, int *ends)
{
    PyObject *edge = PySequence_Fast(obj, "an edge must be a pair of ints");
    if (!edge)
        return -1;
    int status = 0;
    if (PySequence_Fast_GET_SIZE(edge) != 2) {
        PyErr_SetString(PyExc_ValueError, "an edge must be a pair of ints");
        status = -1;
    }
    for (int j = 0; j < 2 && !status; j++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(edge, j), &overflow);
        if (v == -1 && !overflow && PyErr_Occurred())
            status = -1;
        else if (overflow || v < 0 || v >= n)
            status = 1;
        else
            ends[j] = (int)v;
    }
    Py_DECREF(edge);
    return status;
}

/* Word w of the key rt_canonical_key writes, 8 little-endian bytes. */
static uint64_t key_word(const unsigned char *key, int w)
{
    uint64_t word = 0;
    for (int b = 7; b >= 0; b--)
        word = word << 8 | key[8 * w + b];
    return word;
}

/* The key's words, least significant first, as one Python int. */
static PyObject *key_int(const unsigned char *key, int words)
{
    if (!words)
        return PyLong_FromLong(0);
    PyObject *out = PyLong_FromUnsignedLongLong(key_word(key, words - 1));
    PyObject *shift = words > 1 ? PyLong_FromLong(64) : NULL;
    for (int w = words - 2; out && w >= 0; w--) {
        PyObject *low = shift ? PyLong_FromUnsignedLongLong(key_word(key, w)) : NULL;
        PyObject *high = low ? PyNumber_Lshift(out, shift) : NULL;
        Py_DECREF(out);
        out = high ? PyNumber_Or(high, low) : NULL;
        Py_XDECREF(high);
        Py_XDECREF(low);
    }
    Py_XDECREF(shift);
    return out;
}

/* canonical_key(n, edges) -> pure.canonical_key(n, edges) for 0 <= n <= 64
 * (pure.check_vertex_count), or None when an endpoint lies outside 0..n-1.
 * Each edge is a sequence of two ints. */
static PyObject *py_canonical_key(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    (void)self;
    long n;
    PyObject *seq;
    if (!nargs_ok("canonical_key", nargs, 2) ||
        ((n = PyLong_AsLong(args[0])) == -1 && PyErr_Occurred()))
        return NULL;
    if (n < 0 || n > RT_MAXN) {
        PyErr_SetString(PyExc_ValueError, "canonical_key takes 0..64 vertices");
        return NULL;
    }
    if (!(seq = PySequence_Fast(args[1], "edges must be a sequence")))
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(seq);
    int *ends = m < INT_MAX / 2 ? PyMem_Malloc(((size_t)2 * m + 1) * sizeof(int)) : NULL;
    int status = ends ? 0 : -1;
    if (!ends)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < m && !status; i++)
        status = read_edge(PySequence_Fast_GET_ITEM(seq, i), n, ends + 2 * i);
    unsigned char key[RT_MAXN * 8];
    if (!status && rt_canonical_key((int)n, (int)m, ends, key))
        status = 1;
    PyObject *result = status < 0 ? NULL
        : status ? Py_NewRef(Py_None) : key_int(key, (int)(n * n + 63) / 64);
    PyMem_Free(ends);
    Py_DECREF(seq);
    return result;
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"find_avoiding", FASTCALL(py_find_avoiding), NULL},
    {"sample_and_check", FASTCALL(py_sample_and_check), NULL},
    {"unique_counts", FASTCALL(py_unique_counts), NULL},
    {"canonical_key", FASTCALL(py_canonical_key), NULL},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_native",
    "The compiled kernels; rturan._kernels.native is their front end.", -1,
    methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module);
}
