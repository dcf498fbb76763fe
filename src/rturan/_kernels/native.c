/* Compiled search kernels: plain C over flat int arrays, no Python C-API.
 *
 * native.py calls these functions through ctypes; it only marshals.
 * pure.py is the reference: each function returns exactly what its pure
 * twin does, node counts and the xorshift64* sample stream included.
 *
 * A list of int lists (the earlier edges each edge conflicts with, the host
 * edges of each pattern copy) arrives as two arrays, flattened once by
 * pure.Packed: row r is idx[off[r]] .. idx[off[r + 1] - 1].  The code
 * trusts them: pure's checks have refused wrong counts, indices outside
 * 0..m-1 and, for the avoider, a copy with no edge before any call.
 *
 * The caller passes every output and work buffer too (the sampler's options
 * and marks included), so nothing here allocates; the canonical form's
 * buffers, sized for its 64-vertex cap, are on the stack.
 */
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
