//! Minimum-cost perfect matching on a small dense graph: Edmonds' blossom
//! algorithm in its primal–dual form, O(n³) as in Galil, "Efficient
//! algorithms for finding maximum matching in graphs" (ACM Computing
//! Surveys, 1986).
//!
//! The solver maximises `Σ (C − cost)` over the matchings of maximum
//! cardinality, where `C` is the largest edge cost, so on a graph with a
//! perfect matching it returns a perfect matching of minimum total cost.
//! Vertex duals, slacks and deltas are kept doubled, as in Galil's
//! presentation. Costs are `f64`: where rounding leaves a tight edge with a
//! tiny positive slack, the least-slack edge the dual update was computed
//! from is admitted explicitly, so the search always advances and the
//! result is optimal up to rounding.
//!
//! Every array lives in [`Blossom`], which grows to the largest problem it
//! has seen, so a decoder that keeps one in its scratch allocates nothing
//! per shot. The exact matching decoder (`mwpm.rs`) is the only user.

/// "None" for vertex, edge, endpoint and blossom indices.
const NONE: usize = usize::MAX;
/// Top-level blossom labels; `CRUMB` marks a blossom `scan_blossom` passed.
const FREE: u8 = 0;
const S: u8 = 1;
const T: u8 = 2;
const CRUMB: u8 = 4;

/// Reusable state of one matching problem. Vertices are `0..n`, blossoms
/// `n..2n`; an edge `k` has endpoints `2k` (its first vertex) and `2k + 1`
/// (its second), and `p ^ 1` is the endpoint across the edge from `p`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Blossom {
    /// Vertex count of the current problem.
    n: usize,
    /// `(a, b, cost)` while edges are added; `solve` turns costs into
    /// weights `C − cost`.
    edges: Vec<(usize, usize, f64)>,
    /// CSR of the remote endpoints of each vertex's edges.
    neighbour_start: Vec<usize>,
    neighbours: Vec<usize>,
    /// Remote endpoint of each vertex's matched edge.
    mate: Vec<usize>,
    /// Label of each top-level blossom (and of each vertex).
    label: Vec<u8>,
    /// Remote endpoint of the edge a blossom got its label through.
    label_end: Vec<usize>,
    /// Top-level blossom of each vertex.
    in_blossom: Vec<usize>,
    parent: Vec<usize>,
    /// Sub-blossoms of a blossom, from its base round the cycle.
    children: Vec<Vec<usize>>,
    /// `ends[b][i]` is the endpoint, in `children[b][i]`, of the edge that
    /// joins `children[b][i]` to `children[b][i + 1]`.
    ends: Vec<Vec<usize>>,
    base: Vec<usize>,
    /// Least-slack edge from a blossom (or a free vertex) to an S-blossom.
    best_edge: Vec<usize>,
    /// Least-slack edges from a blossom to each neighbouring S-blossom;
    /// empty means "read its vertices' neighbour lists".
    best_edges: Vec<Vec<usize>>,
    unused: Vec<usize>,
    /// Doubled vertex duals, then blossom duals.
    dual: Vec<f64>,
    allowed: Vec<bool>,
    queue: Vec<usize>,
    /// Working lists of `scan_blossom`, `add_blossom` and the leaf walks.
    crumbs: Vec<usize>,
    best_to: Vec<usize>,
    leaves: Vec<usize>,
}

impl Blossom {
    /// Starts a problem on `n` vertices with no edges.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Adds an edge between distinct vertices `a` and `b`.
    pub(crate) fn add_edge(&mut self, a: usize, b: usize, cost: f64) {
        debug_assert!(a != b && a < self.n && b < self.n);
        self.edges.push((a, b, cost));
    }

    /// The vertex matched to `v` by the last [`Blossom::solve`], if any.
    pub(crate) fn mate(&self, v: usize) -> Option<usize> {
        let p = self.mate[v];
        (p != NONE).then(|| self.endpoint(p))
    }

    fn endpoint(&self, p: usize) -> usize {
        let (a, b, _) = self.edges[p / 2];
        [a, b][p & 1]
    }

    fn slack(&self, k: usize) -> f64 {
        let (a, b, weight) = self.edges[k];
        self.dual[a] + self.dual[b] - 2.0 * weight
    }

    fn child(&self, b: usize, at: isize) -> usize {
        let children = &self.children[b];
        children[at.rem_euclid(children.len() as isize) as usize]
    }

    fn end(&self, b: usize, at: isize) -> usize {
        let ends = &self.ends[b];
        ends[at.rem_euclid(ends.len() as isize) as usize]
    }

    fn push_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.n {
            out.push(b);
        } else {
            for &child in &self.children[b] {
                self.push_leaves(child, out);
            }
        }
    }

    /// The vertices of blossom `b`, in the reusable leaf list.
    fn take_leaves(&mut self, b: usize) -> Vec<usize> {
        let mut leaves = std::mem::take(&mut self.leaves);
        leaves.clear();
        self.push_leaves(b, &mut leaves);
        leaves
    }

    /// Sizes every array for the current problem and empties the matching.
    fn prepare(&mut self) {
        let n = self.n;
        let max_cost = self.edges.iter().fold(0.0_f64, |m, e| m.max(e.2));
        let mut max_weight = 0.0_f64;
        for edge in &mut self.edges {
            edge.2 = max_cost - edge.2;
            max_weight = max_weight.max(edge.2);
        }
        self.neighbour_start.clear();
        self.neighbour_start.resize(n + 1, 0);
        for &(a, b, _) in &self.edges {
            self.neighbour_start[a + 1] += 1;
            self.neighbour_start[b + 1] += 1;
        }
        for v in 0..n {
            self.neighbour_start[v + 1] += self.neighbour_start[v];
        }
        self.neighbours.clear();
        self.neighbours.resize(2 * self.edges.len(), NONE);
        let mut fill = std::mem::take(&mut self.best_to);
        fill.clear();
        fill.extend_from_slice(&self.neighbour_start[..n]);
        for (k, &(a, b, _)) in self.edges.iter().enumerate() {
            self.neighbours[fill[a]] = 2 * k + 1;
            fill[a] += 1;
            self.neighbours[fill[b]] = 2 * k;
            fill[b] += 1;
        }
        self.best_to = fill;

        let reset = |v: &mut Vec<usize>, len: usize| {
            v.clear();
            v.resize(len, NONE);
        };
        reset(&mut self.mate, n);
        reset(&mut self.label_end, 2 * n);
        reset(&mut self.parent, 2 * n);
        reset(&mut self.best_edge, 2 * n);
        reset(&mut self.base, 2 * n);
        self.in_blossom.clear();
        self.in_blossom.extend(0..n);
        self.base[..n].copy_from_slice(&self.in_blossom);
        self.label.clear();
        self.label.resize(2 * n, FREE);
        if self.children.len() < 2 * n {
            self.children.resize_with(2 * n, Vec::new);
            self.ends.resize_with(2 * n, Vec::new);
            self.best_edges.resize_with(2 * n, Vec::new);
        }
        for b in 0..2 * n {
            self.children[b].clear();
            self.ends[b].clear();
            self.best_edges[b].clear();
        }
        self.unused.clear();
        self.unused.extend(n..2 * n);
        self.dual.clear();
        self.dual.resize(n, max_weight);
        self.dual.resize(2 * n, 0.0);
        self.allowed.clear();
        self.allowed.resize(self.edges.len(), false);

        // Warm start: lower each vertex's dual until one of its edges is
        // tight, then match tight edges greedily. The duals stay feasible
        // and the matched edges tight, which is all the stages need to end
        // at a minimum-cost perfect matching; most of a sparse shot's
        // defects are matched here.
        for v in 0..n {
            let range = self.neighbour_start[v]..self.neighbour_start[v + 1];
            if let Some(lowest) = self.neighbours[range]
                .iter()
                .map(|&p| 2.0 * self.edges[p / 2].2 - self.dual[self.endpoint(p)])
                .reduce(f64::max)
            {
                self.dual[v] = lowest;
            }
        }
        for v in 0..n {
            if self.mate[v] != NONE {
                continue;
            }
            let range = self.neighbour_start[v]..self.neighbour_start[v + 1];
            if let Some(&p) = self.neighbours[range]
                .iter()
                .find(|&&p| self.mate[self.endpoint(p)] == NONE && self.slack(p / 2) <= 0.0)
            {
                let u = self.endpoint(p);
                self.mate[v] = p;
                self.mate[u] = p ^ 1;
            }
        }
    }

    /// Labels the top-level blossom of `w` with `label`, reached through
    /// remote endpoint `p`; a T-blossom's mate becomes an S-blossom.
    fn assign_label(&mut self, w: usize, label: u8, p: usize) {
        let b = self.in_blossom[w];
        self.label[w] = label;
        self.label[b] = label;
        self.label_end[w] = p;
        self.label_end[b] = p;
        self.best_edge[w] = NONE;
        self.best_edge[b] = NONE;
        if label == S {
            let mut queue = std::mem::take(&mut self.queue);
            self.push_leaves(b, &mut queue);
            self.queue = queue;
        } else {
            let mate = self.mate[self.base[b]];
            self.assign_label(self.endpoint(mate), S, mate ^ 1);
        }
    }

    /// Traces back from S-vertices `v` and `w` to the base of a new blossom
    /// (returned) or to two single vertices (`NONE`: an augmenting path).
    fn scan_blossom(&mut self, mut v: usize, mut w: usize) -> usize {
        let mut crumbs = std::mem::take(&mut self.crumbs);
        crumbs.clear();
        let mut base = NONE;
        while v != NONE {
            let mut b = self.in_blossom[v];
            if self.label[b] & CRUMB != 0 {
                base = self.base[b];
                break;
            }
            crumbs.push(b);
            self.label[b] = S | CRUMB;
            if self.label_end[b] == NONE {
                v = NONE;
            } else {
                // One step back to the T-blossom, one more to its S-mate.
                b = self.in_blossom[self.endpoint(self.label_end[b])];
                v = self.endpoint(self.label_end[b]);
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &crumbs {
            self.label[b] = S;
        }
        self.crumbs = crumbs;
        base
    }

    /// Contracts the odd cycle that edge `k` closes at `base` into a new
    /// S-blossom.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (v, w, _) = self.edges[k];
        let bb = self.in_blossom[base];
        let b = self.unused.pop().expect("at most n / 2 blossoms are live");
        self.base[b] = base;
        self.parent[b] = NONE;
        self.parent[bb] = b;
        let mut children = std::mem::take(&mut self.children[b]);
        let mut ends = std::mem::take(&mut self.ends[b]);
        let mut bv = self.in_blossom[v];
        while bv != bb {
            self.parent[bv] = b;
            children.push(bv);
            ends.push(self.label_end[bv]);
            bv = self.in_blossom[self.endpoint(self.label_end[bv])];
        }
        children.push(bb);
        children.reverse();
        ends.reverse();
        ends.push(2 * k);
        let mut bw = self.in_blossom[w];
        while bw != bb {
            self.parent[bw] = b;
            children.push(bw);
            ends.push(self.label_end[bw] ^ 1);
            bw = self.in_blossom[self.endpoint(self.label_end[bw])];
        }
        self.children[b] = children;
        self.ends[b] = ends;
        self.label[b] = S;
        self.label_end[b] = self.label_end[bb];
        self.dual[b] = 0.0;

        // T-vertices of the cycle become S-vertices and are scanned.
        let leaves = self.take_leaves(b);
        for &leaf in &leaves {
            if self.label[self.in_blossom[leaf]] == T {
                self.queue.push(leaf);
            }
            self.in_blossom[leaf] = b;
        }
        self.leaves = leaves;

        // The least-slack edge from the new blossom to each S-blossom.
        let mut best_to = std::mem::take(&mut self.best_to);
        best_to.clear();
        best_to.resize(2 * self.n, NONE);
        for at in 0..self.children[b].len() {
            let child = self.children[b][at];
            let mut candidates = std::mem::take(&mut self.best_edges[child]);
            if candidates.is_empty() {
                let leaves = self.take_leaves(child);
                for &leaf in &leaves {
                    let range = self.neighbour_start[leaf]..self.neighbour_start[leaf + 1];
                    candidates.extend(self.neighbours[range].iter().map(|p| p / 2));
                }
                self.leaves = leaves;
            }
            for &k in &candidates {
                let (i, j, _) = self.edges[k];
                let outer = if self.in_blossom[j] == b { i } else { j };
                let bj = self.in_blossom[outer];
                if bj != b
                    && self.label[bj] == S
                    && (best_to[bj] == NONE || self.slack(k) < self.slack(best_to[bj]))
                {
                    best_to[bj] = k;
                }
            }
            candidates.clear();
            self.best_edges[child] = candidates;
            self.best_edge[child] = NONE;
        }
        let mut best_edges = std::mem::take(&mut self.best_edges[b]);
        best_edges.extend(best_to.iter().copied().filter(|&k| k != NONE));
        self.best_edge[b] = NONE;
        for &k in &best_edges {
            if self.best_edge[b] == NONE || self.slack(k) < self.slack(self.best_edge[b]) {
                self.best_edge[b] = k;
            }
        }
        self.best_edges[b] = best_edges;
        self.best_to = best_to;
    }

    /// Undoes blossom `b`: during a stage (a T-blossom whose dual reached
    /// zero) its sub-blossoms are relabelled; at the end of a stage,
    /// sub-blossoms with a zero dual are expanded too.
    fn expand_blossom(&mut self, b: usize, end_of_stage: bool) {
        for at in 0..self.children[b].len() {
            let child = self.children[b][at];
            self.parent[child] = NONE;
            if child < self.n {
                self.in_blossom[child] = child;
            } else if end_of_stage && self.dual[child] == 0.0 {
                self.expand_blossom(child, end_of_stage);
            } else {
                let leaves = self.take_leaves(child);
                for &leaf in &leaves {
                    self.in_blossom[leaf] = child;
                }
                self.leaves = leaves;
            }
        }
        if !end_of_stage && self.label[b] == T {
            // Relabel from the sub-blossom the label came through to the
            // base, going round the even-length side.
            let entry = self.in_blossom[self.endpoint(self.label_end[b] ^ 1)];
            let len = self.children[b].len() as isize;
            let mut j = self.children[b]
                .iter()
                .position(|&c| c == entry)
                .expect("the entry child is a child") as isize;
            let (step, trick): (isize, usize) = if j & 1 == 1 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.label_end[b];
            while j != 0 {
                let across = self.endpoint(p ^ 1);
                self.label[across] = FREE;
                let back = self.endpoint(self.end(b, j - trick as isize) ^ trick ^ 1);
                self.label[back] = FREE;
                self.assign_label(across, T, p);
                let k = self.end(b, j - trick as isize) / 2;
                self.allowed[k] = true;
                j += step;
                p = self.end(b, j - trick as isize) ^ trick;
                self.allowed[p / 2] = true;
                j += step;
            }
            // The base sub-blossom keeps T without passing it to its mate.
            let bv = self.child(b, j);
            let across = self.endpoint(p ^ 1);
            self.label[across] = T;
            self.label[bv] = T;
            self.label_end[across] = p;
            self.label_end[bv] = p;
            self.best_edge[bv] = NONE;
            j += step;
            while self.child(b, j) != entry {
                let bv = self.child(b, j);
                j += step;
                if self.label[bv] == S {
                    continue;
                }
                // A sub-blossom reached from outside becomes a T-blossom.
                let leaves = self.take_leaves(bv);
                let reached = leaves.iter().copied().find(|&v| self.label[v] != FREE);
                self.leaves = leaves;
                if let Some(v) = reached {
                    self.label[v] = FREE;
                    let mate = self.endpoint(self.mate[self.base[bv]]);
                    self.label[mate] = FREE;
                    self.assign_label(v, T, self.label_end[v]);
                }
            }
        }
        self.label[b] = FREE;
        self.label_end[b] = NONE;
        self.children[b].clear();
        self.ends[b].clear();
        self.base[b] = NONE;
        self.best_edges[b].clear();
        self.best_edge[b] = NONE;
        self.unused.push(b);
    }

    /// Swaps matched and unmatched edges on the even path from vertex `v`
    /// to the base of blossom `b`, which becomes `v`.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.parent[t] != b {
            t = self.parent[t];
        }
        if t >= self.n {
            self.augment_blossom(t, v);
        }
        let len = self.children[b].len() as isize;
        let start = self.children[b]
            .iter()
            .position(|&c| c == t)
            .expect("t is a child");
        let mut j = start as isize;
        let (step, trick): (isize, usize) = if j & 1 == 1 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += step;
            let t = self.child(b, j);
            let p = self.end(b, j - trick as isize) ^ trick;
            if t >= self.n {
                self.augment_blossom(t, self.endpoint(p));
            }
            j += step;
            let t = self.child(b, j);
            if t >= self.n {
                self.augment_blossom(t, self.endpoint(p ^ 1));
            }
            let (near, far) = (self.endpoint(p), self.endpoint(p ^ 1));
            self.mate[near] = p ^ 1;
            self.mate[far] = p;
        }
        self.children[b].rotate_left(start);
        self.ends[b].rotate_left(start);
        self.base[b] = self.base[self.children[b][0]];
        debug_assert_eq!(self.base[b], v);
    }

    /// Augments the matching along the path through edge `k`, which joins
    /// two S-blossoms rooted at single vertices.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.in_blossom[s];
                if bs >= self.n {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.label_end[bs] == NONE {
                    break;
                }
                let bt = self.in_blossom[self.endpoint(self.label_end[bs])];
                s = self.endpoint(self.label_end[bt]);
                let j = self.endpoint(self.label_end[bt] ^ 1);
                if bt >= self.n {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.label_end[bt];
                p = self.label_end[bt] ^ 1;
            }
        }
    }

    /// Scans S-vertex `v`'s edges; returns whether the matching grew.
    fn scan(&mut self, v: usize) -> bool {
        for at in self.neighbour_start[v]..self.neighbour_start[v + 1] {
            let p = self.neighbours[at];
            let k = p / 2;
            let w = self.endpoint(p);
            if self.in_blossom[v] == self.in_blossom[w] {
                continue;
            }
            let mut slack = 0.0;
            if !self.allowed[k] {
                slack = self.slack(k);
                self.allowed[k] = slack <= 0.0;
            }
            let bw = self.in_blossom[w];
            if self.allowed[k] {
                if self.label[bw] == FREE {
                    self.assign_label(w, T, p ^ 1);
                } else if self.label[bw] == S {
                    let base = self.scan_blossom(v, w);
                    if base == NONE {
                        self.augment_matching(k);
                        return true;
                    }
                    self.add_blossom(base, k);
                } else if self.label[w] == FREE {
                    // Reached inside a T-blossom: remembered for its
                    // relabelling if it expands.
                    self.label[w] = T;
                    self.label_end[w] = p ^ 1;
                }
            } else if self.label[bw] == S {
                let bv = self.in_blossom[v];
                if self.best_edge[bv] == NONE || slack < self.slack(self.best_edge[bv]) {
                    self.best_edge[bv] = k;
                }
            } else if self.label[w] == FREE
                && (self.best_edge[w] == NONE || slack < self.slack(self.best_edge[w]))
            {
                self.best_edge[w] = k;
            }
        }
        false
    }

    /// Finds a maximum-cardinality matching of minimum total cost among
    /// them; read it with [`Blossom::mate`].
    pub(crate) fn solve(&mut self) {
        self.prepare();
        let n = self.n;
        for _stage in 0..n {
            self.label.fill(FREE);
            self.best_edge.fill(NONE);
            for b in n..2 * n {
                self.best_edges[b].clear();
            }
            self.allowed.fill(false);
            self.queue.clear();
            for v in 0..n {
                if self.mate[v] == NONE && self.label[self.in_blossom[v]] == FREE {
                    self.assign_label(v, S, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    if self.scan(v) {
                        augmented = true;
                        break;
                    }
                }
                if augmented {
                    break;
                }
                // No augmenting path on tight edges: move the duals by the
                // least delta that makes an edge tight or a T-blossom's
                // dual zero.
                let (mut delta, mut edge, mut blossom) = (f64::INFINITY, NONE, NONE);
                for v in 0..n {
                    let k = self.best_edge[v];
                    if self.label[self.in_blossom[v]] == FREE && k != NONE && self.slack(k) < delta
                    {
                        (delta, edge) = (self.slack(k), k);
                    }
                }
                for b in 0..2 * n {
                    let k = self.best_edge[b];
                    if self.parent[b] == NONE
                        && self.label[b] == S
                        && k != NONE
                        && self.slack(k) / 2.0 < delta
                    {
                        (delta, edge) = (self.slack(k) / 2.0, k);
                    }
                }
                for b in n..2 * n {
                    if self.base[b] != NONE
                        && self.parent[b] == NONE
                        && self.label[b] == T
                        && self.dual[b] < delta
                    {
                        (delta, edge, blossom) = (self.dual[b], NONE, b);
                    }
                }
                if delta == f64::INFINITY {
                    // The matching has maximum cardinality.
                    break;
                }
                for v in 0..n {
                    match self.label[self.in_blossom[v]] {
                        S => self.dual[v] -= delta,
                        T => self.dual[v] += delta,
                        _ => {}
                    }
                }
                for b in n..2 * n {
                    if self.base[b] != NONE && self.parent[b] == NONE {
                        match self.label[b] {
                            S => self.dual[b] += delta,
                            T => self.dual[b] -= delta,
                            _ => {}
                        }
                    }
                }
                if edge != NONE {
                    // Admit the least-slack edge and scan from its S end.
                    self.allowed[edge] = true;
                    let (a, b, _) = self.edges[edge];
                    let s_end = if self.label[self.in_blossom[a]] == S {
                        a
                    } else {
                        b
                    };
                    self.queue.push(s_end);
                } else {
                    self.expand_blossom(blossom, false);
                }
            }
            if !augmented {
                break;
            }
            for b in n..2 * n {
                if self.parent[b] == NONE
                    && self.base[b] != NONE
                    && self.label[b] == S
                    && self.dual[b] == 0.0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum total cost over every perfect matching of `0..n` (`n` even)
    /// on the complete graph `cost`, by enumeration.
    fn brute_force(cost: &[Vec<f64>], free: &mut Vec<usize>) -> f64 {
        let Some(first) = free.pop() else {
            return 0.0;
        };
        let mut best = f64::INFINITY;
        for at in 0..free.len() {
            let partner = free.remove(at);
            best = best.min(cost[first][partner] + brute_force(cost, free));
            free.insert(at, partner);
        }
        free.push(first);
        best
    }

    fn solve_complete(blossom: &mut Blossom, cost: &[Vec<f64>]) -> f64 {
        blossom.reset(cost.len());
        for (a, row) in cost.iter().enumerate() {
            for (b, &c) in row.iter().enumerate().skip(a + 1) {
                blossom.add_edge(a, b, c);
            }
        }
        blossom.solve();
        let mut total = 0.0;
        for (v, row) in cost.iter().enumerate() {
            let m = blossom.mate(v).expect("a complete graph on an even count");
            assert_eq!(blossom.mate(m), Some(v), "mates are mutual");
            if v < m {
                total += row[m];
            }
        }
        total
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn complete_graphs_match_at_brute_force_cost() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One solver across problems of every size checks the reuse too.
        let mut blossom = Blossom::default();
        for case in 0..600 {
            let n = 2 * (1 + (next() % 5) as usize);
            let mut cost = vec![vec![0.0; n]; n];
            for a in 0..n {
                for b in a + 1..n {
                    // Small integers on every third case force ties.
                    let c = if case % 3 == 0 {
                        (next() % 4) as f64
                    } else {
                        (next() % 1_000_000) as f64 / 1000.0
                    };
                    cost[a][b] = c;
                    cost[b][a] = c;
                }
            }
            let want = brute_force(&cost, &mut (0..n).collect());
            let got = solve_complete(&mut blossom, &cost);
            assert!((got - want).abs() < 1e-9, "case {case}: {got} vs {want}");
        }
    }

    #[test]
    fn an_odd_cycle_is_matched_through_a_blossom() {
        // A triangle 0-1-2 of cheap edges, each vertex with a pendant
        // partner 3, 4, 5 behind a dearer edge, and the pendants joined
        // dearly: the optimum takes the three pendant edges.
        let mut blossom = Blossom::default();
        blossom.reset(6);
        for (a, b, cost) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (0, 3, 2.0),
            (1, 4, 2.0),
            (2, 5, 2.0),
            (3, 4, 10.0),
            (4, 5, 10.0),
        ] {
            blossom.add_edge(a, b, cost);
        }
        blossom.solve();
        let mates: Vec<Option<usize>> = (0..6).map(|v| blossom.mate(v)).collect();
        assert_eq!(
            mates,
            [Some(3), Some(4), Some(5), Some(0), Some(1), Some(2)]
        );
    }
}
