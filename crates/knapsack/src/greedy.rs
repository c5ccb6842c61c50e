//! Greedy and local-search heuristics for MCMK.
//!
//! The density-ordered greedy is what an edge controller can afford to run
//! every allocation round; it is also the "accurate task allocation" proxy
//! used when reproducing Fig. 3 (allocate by importance under capacity
//! limits). Local search tightens it when a little more compute is
//! available.

use crate::problem::{Item, Packing, Problem, Solution};

/// Density-ordered greedy first-fit: items are sorted by profit density
/// (profit per aggregate-normalised size) and each is placed into the sack
/// with the *least* remaining headroom that still fits (best-fit), leaving
/// big headroom for big items.
///
/// Runs in `O(N log N + N·M)`.
///
/// # Examples
///
/// ```
/// use knapsack::greedy::greedy;
/// use knapsack::problem::{Item, Problem, Sack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Problem::new(
///     vec![Item::new(2.0, 1.0, 10.0)?, Item::new(2.0, 1.0, 1.0)?],
///     vec![Sack::new(2.0, 1.0)?],
/// )?;
/// assert_eq!(greedy(&p).profit, 10.0);
/// # Ok(())
/// # }
/// ```
pub fn greedy(problem: &Problem) -> Solution {
    greedy_with_index(problem, &DensityIndex::new(problem))
}

/// Reusable profit-density ordering for greedy passes.
///
/// `greedy` used to re-sort a fresh density index on every call; callers
/// that solve the same item set repeatedly — day-over-day re-allocation,
/// the portfolio warm start, benchmark sweeps — can build the index once
/// and pass it to [`greedy_with_index`] to skip the `O(N log N)` sort.
/// The placement produced through a reused index is bit-identical to a
/// fresh `greedy` call (pinned by a regression test against the original
/// inline implementation).
#[derive(Debug, Clone)]
pub struct DensityIndex {
    order: Vec<usize>,
    total_w: f64,
    total_v: f64,
}

impl DensityIndex {
    /// Sorts the items of `problem` by decreasing profit density, breaking
    /// density ties by decreasing profit.
    pub fn new(problem: &Problem) -> Self {
        let total_w: f64 =
            problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
        let total_v: f64 =
            problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
        let mut order: Vec<usize> = (0..problem.num_items()).collect();
        order.sort_by(|&a, &b| {
            let da = problem.items()[a].density(total_w, total_v);
            let db = problem.items()[b].density(total_w, total_v);
            db.partial_cmp(&da).expect("densities comparable").then(
                problem.items()[b].profit.partial_cmp(&problem.items()[a].profit).expect("finite"),
            )
        });
        Self { order, total_w, total_v }
    }

    /// Item indices in greedy placement order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The aggregate `(weight, volume)` capacity scales the densities were
    /// normalised by (both clamped to ≥ 1e-12).
    pub fn scales(&self) -> (f64, f64) {
        (self.total_w, self.total_v)
    }
}

/// [`greedy`] with a prebuilt [`DensityIndex`] (which must have been built
/// for this `problem`'s items and sacks).
pub fn greedy_with_index(problem: &Problem, index: &DensityIndex) -> Solution {
    let mut packing = Packing::empty(problem.num_items());
    let mut residuals = Residuals::new(problem);
    for &i in &index.order {
        let item = problem.items()[i];
        // Best fit: the feasible sack minimising leftover headroom.
        let mut best: Option<(usize, f64)> = None;
        for (s, slack) in residuals.fitting(&item, index.scales()) {
            if best.is_none_or(|(_, b)| slack < b) {
                best = Some((s, slack));
            }
        }
        if let Some((s, _)) = best {
            residuals.take(s, &item);
            packing.assign(i, Some(s));
        }
    }
    let profit = packing.profit(problem);
    Solution { packing, profit }
}

/// A place an incoming item may take: the item must fit `(weight,
/// volume)` and out-earn `profit` by more than 1e-12. For a sack, its
/// residual capacity, with nothing to out-earn; for a packed item, the
/// headroom its sack would have without it, and its own profit.
///
/// Both tests are monotone (rounded addition is), so merging rooms into
/// the lowest profit and the largest headroom per dimension gives a
/// summary that admits an item whenever any of its rooms does: a
/// rejection by the summary is a rejection by every room under it, which
/// makes the pruned searches below exact.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Room {
    profit: f64,
    weight: f64,
    volume: f64,
}

impl Room {
    /// Admits nothing; the identity of [`Room::merge`].
    const NONE: Self =
        Self { profit: f64::INFINITY, weight: f64::NEG_INFINITY, volume: f64::NEG_INFINITY };

    fn sack((rw, rv): (f64, f64)) -> Self {
        Self { profit: f64::NEG_INFINITY, weight: rw, volume: rv }
    }

    /// The room `item` leaves when it moves out of a sack with residual
    /// `(rw, rv)`.
    fn vacated(item: &Item, (rw, rv): (f64, f64)) -> Self {
        Self { profit: item.profit, weight: rw + item.weight, volume: rv + item.volume }
    }

    fn residual(&self) -> (f64, f64) {
        (self.weight, self.volume)
    }

    fn merge_all(rooms: &[Self]) -> Self {
        rooms.iter().fold(Self::NONE, |a, &b| a.merge(b))
    }

    fn merge(self, other: Self) -> Self {
        Self {
            profit: self.profit.min(other.profit),
            weight: self.weight.max(other.weight),
            volume: self.volume.max(other.volume),
        }
    }

    fn admits(&self, item: &Item) -> bool {
        item.profit > self.profit + 1e-12 && self.fits(item)
    }

    fn fits(&self, item: &Item) -> bool {
        item.weight <= self.weight + 1e-12 && item.volume <= self.volume + 1e-12
    }
}

/// A row of [`Room`]s under a complete binary tree of their merges (heap
/// layout: node `k` covers `2k` and `2k + 1`, leaf `width + i` is room
/// `i`, padding leaves are [`Room::NONE`]).
#[derive(Debug)]
struct RoomTree {
    nodes: Vec<Room>,
    width: usize,
    len: usize,
}

impl RoomTree {
    fn new(len: usize) -> Self {
        let width = len.next_power_of_two();
        Self { nodes: vec![Room::NONE; 2 * width], width, len }
    }

    fn rooms(&self) -> &[Room] {
        &self.nodes[self.width..self.width + self.len]
    }

    /// The rooms, for a bulk rewrite to be followed by [`RoomTree::rebuild`].
    fn rooms_mut(&mut self) -> &mut [Room] {
        &mut self.nodes[self.width..self.width + self.len]
    }

    /// Recomputes every inner node from the rooms.
    fn rebuild(&mut self) {
        for k in (1..self.width).rev() {
            self.nodes[k] = self.nodes[2 * k].merge(self.nodes[2 * k + 1]);
        }
    }

    fn set(&mut self, i: usize, room: Room) {
        let mut k = self.width + i;
        self.nodes[k] = room;
        while k > 1 {
            k /= 2;
            let merged = self.nodes[2 * k].merge(self.nodes[2 * k + 1]);
            if merged == self.nodes[k] {
                // Every summary above is unchanged too.
                break;
            }
            self.nodes[k] = merged;
        }
    }

    /// The rooms that admit `item`, in index order, by a left-first walk
    /// that skips every subtree whose summary rejects it.
    fn admitting<'a>(&'a self, item: &'a Item) -> Admitting<'a> {
        Admitting { tree: self, item, node: 1 }
    }
}

/// Iterator of [`RoomTree::admitting`]: `node` is the next node to visit,
/// 0 once the walk is done.
struct Admitting<'a> {
    tree: &'a RoomTree,
    item: &'a Item,
    node: usize,
}

impl Iterator for Admitting<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.node != 0 {
            let k = self.node;
            let admitted = self.tree.nodes[k].admits(self.item);
            if admitted && k < self.tree.width {
                self.node = 2 * k;
                continue;
            }
            // Past subtree `k`: up while a right child, then to the right.
            let up = k >> k.trailing_ones();
            self.node = if up == 0 { 0 } else { up + 1 };
            if admitted {
                return Some(k - self.tree.width);
            }
        }
        None
    }
}

/// Remaining `(weight, volume)` capacity of every sack, under a max-tree
/// over the sacks. A placement pass asks [`Residuals::fitting`] for the
/// candidate sacks of an item; an item larger than the largest residual in
/// either dimension gets none without an `O(M)` scan. Each residual
/// changes exactly as in a plain `Vec<(f64, f64)>` (`residual -= item`),
/// so passes built on it stay bit-identical to the scan they replace.
#[derive(Debug)]
pub struct Residuals {
    tree: RoomTree,
}

impl Residuals {
    /// Every sack of `problem` at full capacity.
    pub fn new(problem: &Problem) -> Self {
        let mut residuals = Self { tree: RoomTree::new(problem.num_sacks()) };
        residuals.reset(problem, &[]);
        residuals
    }

    /// Capacities less the load of `placement`, subtracted in item order
    /// (bit-identical to [`Packing::residual_capacities`]).
    fn reset(&mut self, problem: &Problem, placement: &[Option<usize>]) {
        let rooms = self.tree.rooms_mut();
        for (room, sack) in rooms.iter_mut().zip(problem.sacks()) {
            *room = Room::sack((sack.weight_capacity, sack.volume_capacity));
        }
        for (item, p) in problem.items().iter().zip(placement) {
            if let Some(s) = *p {
                rooms[s].weight -= item.weight;
                rooms[s].volume -= item.volume;
            }
        }
        self.tree.rebuild();
    }

    fn get(&self, s: usize) -> (f64, f64) {
        self.tree.rooms()[s].residual()
    }

    /// Every sack `item` fits, in index order, with its best-fit slack
    /// `(rw − w)/W + (rv − v)/V` under the aggregate capacity `scales`
    /// (see [`DensityIndex::scales`]). Empty, without scanning, when the
    /// item exceeds the largest residual in either dimension.
    pub fn fitting<'a>(
        &'a self,
        item: &'a Item,
        (total_w, total_v): (f64, f64),
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        // While most sacks still fit an item, a plain scan beats walking
        // the tree to each of them; the tree's root alone rules out the
        // items that fit nowhere.
        let rooms = if self.tree.nodes[1].fits(item) { self.tree.rooms() } else { &[] };
        rooms.iter().enumerate().filter(|(_, room)| room.fits(item)).map(move |(s, room)| {
            let (rw, rv) = room.residual();
            (s, (rw - item.weight) / total_w + (rv - item.volume) / total_v)
        })
    }

    /// Places `item` into sack `s`: its residual drops by the item's size.
    pub fn take(&mut self, s: usize, item: &Item) {
        let (rw, rv) = self.get(s);
        self.set(s, (rw - item.weight, rv - item.volume));
    }

    fn set(&mut self, s: usize, residual: (f64, f64)) {
        self.tree.set(s, Room::sack(residual));
    }
}

/// Hill-climbing improvement over an initial packing. Each round applies
/// the *first* improving moves it finds, not the best ones:
///
/// 1. *inserts* — in item order, every unpacked item with positive profit
///    goes into the lowest-index sack with room;
/// 2. *swaps* — in item order, each unpacked item replaces the first
///    packed item (in index order) whose profit is lower by more than
///    1e-12 and whose sack fits the newcomer once that item leaves.
///
/// Rounds repeat until one makes no move, at most `max_rounds` times.
///
/// The moves are exactly those of the plain scan, which costs `O(N·M)`
/// insert and `O(N²)` swap checks per round; here both are found by a
/// left-first walk of a summary tree that skips every subtree no
/// candidate can be in. Sacks sit under a max-tree of their residuals, so
/// an insert costs `O(1)` for an item that fits nowhere. Packed items sit
/// in index order, summarised per block of 8 (lowest profit, largest
/// headroom per dimension) under a tree of those summaries, so a swap
/// search visits only the blocks a partner could be in. A swap refreshes
/// its sack's members, found through intrusive per-sack lists, at
/// `O(log N)` each. A round costs `O(N + M)` to rebuild, plus the walks,
/// which on tight budgets touch a small fraction of the items: on a
/// route-deflated 1000-node mesh instance (3,996 items, 999 sacks, three
/// quarters of the items left out) they make under 4 % of the plain
/// scan's checks, summaries included. Buffers are allocated once per call.
pub fn local_search(problem: &Problem, initial: Solution, max_rounds: usize) -> Solution {
    let items = problem.items();
    let mut packing = initial.packing;
    let mut residuals = Residuals::new(problem);
    let mut partners = SwapPartners::new(items.len(), problem.num_sacks());
    for _ in 0..max_rounds {
        residuals.reset(problem, packing.placement());
        let mut improved = false;

        for (i, item) in items.iter().enumerate() {
            if packing.sack_of(i).is_some() || item.profit <= 0.0 {
                continue;
            }
            if let Some(s) = residuals.tree.admitting(item).next() {
                packing.assign(i, Some(s));
                residuals.take(s, item);
                improved = true;
            }
        }

        partners.rebuild(items, &packing, &residuals);
        for (i, inc) in items.iter().enumerate() {
            if packing.sack_of(i).is_some() {
                continue;
            }
            let Some(j) = partners.first(inc) else { continue };
            let s = packing.sack_of(j).expect("swap partners are packed");
            let (rw, rv) = partners.rooms[j].residual();
            packing.assign(j, None);
            packing.assign(i, Some(s));
            residuals.set(s, (rw - inc.weight, rv - inc.volume));
            partners.swap(items, j, i, s, residuals.get(s));
            improved = true;
        }

        if !improved {
            break;
        }
    }
    let profit = packing.profit(problem);
    Solution { packing, profit }
}

/// Items per [`SwapPartners`] block summary.
const BLOCK: usize = 8;

/// End marker of a [`SwapPartners`] member list.
const END: usize = usize::MAX;

/// Swap partners for one round of [`local_search`]: the room each packed
/// item would vacate, in item order, summarised per block of [`BLOCK`]
/// items under a [`RoomTree`], plus intrusive per-sack member lists
/// (`head[s]` → `next[j]` → … → [`END`]) to refresh a sack's members when
/// its residual changes.
struct SwapPartners {
    rooms: Vec<Room>,
    blocks: RoomTree,
    head: Vec<usize>,
    next: Vec<usize>,
    /// Blocks to re-summarise after a swap.
    stale: Vec<usize>,
}

impl SwapPartners {
    fn new(num_items: usize, num_sacks: usize) -> Self {
        Self {
            rooms: vec![Room::NONE; num_items],
            blocks: RoomTree::new(num_items.div_ceil(BLOCK)),
            head: vec![END; num_sacks],
            next: vec![END; num_items],
            stale: Vec::new(),
        }
    }

    fn rebuild(&mut self, items: &[Item], packing: &Packing, residuals: &Residuals) {
        self.head.fill(END);
        for (j, (item, p)) in items.iter().zip(packing.placement()).enumerate() {
            self.rooms[j] = match *p {
                Some(s) => {
                    self.next[j] = self.head[s];
                    self.head[s] = j;
                    Room::vacated(item, residuals.get(s))
                }
                None => Room::NONE,
            };
        }
        for (summary, block) in self.blocks.rooms_mut().iter_mut().zip(self.rooms.chunks(BLOCK)) {
            *summary = Room::merge_all(block);
        }
        self.blocks.rebuild();
    }

    /// The lowest-index packed item `inc` may replace.
    fn first(&self, inc: &Item) -> Option<usize> {
        self.blocks.admitting(inc).find_map(|b| {
            let start = b * BLOCK;
            let block = &self.rooms[start..self.rooms.len().min(start + BLOCK)];
            block.iter().position(|room| room.admits(inc)).map(|k| start + k)
        })
    }

    /// `inc` replaced `out` in sack `s`, whose residual is now `residual`.
    fn swap(&mut self, items: &[Item], out: usize, inc: usize, s: usize, residual: (f64, f64)) {
        if self.head[s] == out {
            self.head[s] = self.next[out];
        } else {
            let mut k = self.head[s];
            while self.next[k] != out {
                k = self.next[k];
            }
            self.next[k] = self.next[out];
        }
        self.next[inc] = self.head[s];
        self.head[s] = inc;

        self.rooms[out] = Room::NONE;
        self.stale.push(out / BLOCK);
        let mut k = self.head[s];
        while k != END {
            self.rooms[k] = Room::vacated(&items[k], residual);
            self.stale.push(k / BLOCK);
            k = self.next[k];
        }
        self.stale.sort_unstable();
        self.stale.dedup();
        for &b in &self.stale {
            let block = &self.rooms[b * BLOCK..self.rooms.len().min(b * BLOCK + BLOCK)];
            self.blocks.set(b, Room::merge_all(block));
        }
        self.stale.clear();
    }
}

/// Convenience: greedy followed by local search.
pub fn greedy_with_local_search(problem: &Problem) -> Solution {
    local_search(problem, greedy(problem), 32)
}

#[cfg(test)]
mod local_search_original;

#[cfg(test)]
mod tests {
    use super::local_search_original::local_search_original;
    use super::*;
    use crate::exact::BranchAndBound;
    use crate::problem::{Item, Sack};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(items: Vec<(f64, f64, f64)>, sacks: Vec<(f64, f64)>) -> Problem {
        Problem::new(
            items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
            sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn greedy_prefers_dense_items() {
        let p = problem(vec![(2.0, 1.0, 10.0), (2.0, 1.0, 1.0)], vec![(2.0, 1.0)]);
        let s = greedy(&p);
        assert_eq!(s.profit, 10.0);
        assert!(s.packing.is_feasible(&p));
    }

    #[test]
    fn greedy_feasible_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(0..30);
            let m = rng.gen_range(1..6);
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0.0..1.0))
                })
                .collect();
            let sacks: Vec<(f64, f64)> =
                (0..m).map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0))).collect();
            let p = problem(items, sacks);
            let s = greedy(&p);
            assert!(s.packing.is_feasible(&p));
            assert!((s.profit - s.packing.profit(&p)).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_never_beats_exact_and_is_close() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ratio_sum = 0.0;
        let rounds = 25;
        for _ in 0..rounds {
            let n = rng.gen_range(4..9);
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (rng.gen_range(1.0..4.0), rng.gen_range(1.0..4.0), rng.gen_range(0.1..1.0))
                })
                .collect();
            let p = problem(items, vec![(6.0, 6.0), (4.0, 4.0)]);
            let g = greedy_with_local_search(&p);
            let e = BranchAndBound::new().solve(&p);
            assert!(g.profit <= e.profit + 1e-9, "greedy {} > exact {}", g.profit, e.profit);
            if e.profit > 0.0 {
                ratio_sum += g.profit / e.profit;
            } else {
                ratio_sum += 1.0;
            }
        }
        assert!(ratio_sum / rounds as f64 > 0.85, "avg ratio {}", ratio_sum / rounds as f64);
    }

    #[test]
    fn local_search_inserts_missed_items() {
        let p = problem(vec![(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)], vec![(2.0, 2.0)]);
        // Start from an empty packing.
        let init = Solution { packing: Packing::empty(2), profit: 0.0 };
        let s = local_search(&p, init, 10);
        assert_eq!(s.profit, 3.0);
    }

    #[test]
    fn local_search_swaps_in_better_item() {
        let p = problem(vec![(2.0, 2.0, 1.0), (2.0, 2.0, 5.0)], vec![(2.0, 2.0)]);
        let mut packing = Packing::empty(2);
        packing.assign(0, Some(0)); // suboptimal start
        let s = local_search(&p, Solution { packing, profit: 1.0 }, 10);
        assert_eq!(s.profit, 5.0);
        assert_eq!(s.packing.sack_of(0), None);
        assert_eq!(s.packing.sack_of(1), Some(0));
    }

    #[test]
    fn local_search_terminates_at_local_optimum() {
        let p = problem(vec![(1.0, 1.0, 4.0)], vec![(1.0, 1.0)]);
        let s0 = greedy(&p);
        let s1 = local_search(&p, s0.clone(), 100);
        assert_eq!(s0, s1);
    }

    /// The original `greedy`, verbatim as it stood before the sort was
    /// hoisted into `DensityIndex` — the regression oracle for exact
    /// output equality.
    fn greedy_original(problem: &Problem) -> Solution {
        let n = problem.num_items();
        let total_w: f64 =
            problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
        let total_v: f64 =
            problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let da = problem.items()[a].density(total_w, total_v);
            let db = problem.items()[b].density(total_w, total_v);
            db.partial_cmp(&da).expect("densities comparable").then(
                problem.items()[b].profit.partial_cmp(&problem.items()[a].profit).expect("finite"),
            )
        });

        let mut packing = Packing::empty(n);
        let mut residual: Vec<(f64, f64)> =
            problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
        for &i in &order {
            let item = problem.items()[i];
            let mut best: Option<(usize, f64)> = None;
            for (s, &(rw, rv)) in residual.iter().enumerate() {
                if item.weight <= rw + 1e-12 && item.volume <= rv + 1e-12 {
                    let slack = (rw - item.weight) / total_w + (rv - item.volume) / total_v;
                    if best.is_none_or(|(_, b)| slack < b) {
                        best = Some((s, slack));
                    }
                }
            }
            if let Some((s, _)) = best {
                residual[s].0 -= item.weight;
                residual[s].1 -= item.volume;
                packing.assign(i, Some(s));
            }
        }
        let profit = packing.profit(problem);
        Solution { packing, profit }
    }

    #[test]
    fn indexed_greedy_bit_identical_to_original() {
        let mut rng = StdRng::seed_from_u64(8080);
        for round in 0..60 {
            let n = rng.gen_range(0..40);
            let m = rng.gen_range(1..8);
            // Duplicate densities and zero sizes exercise the tie-break.
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.0..4.0f64).round(),
                        rng.gen_range(0.0..4.0f64).round(),
                        rng.gen_range(0.0..6.0f64).round(),
                    )
                })
                .collect();
            let sacks: Vec<(f64, f64)> =
                (0..m).map(|_| (rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0))).collect();
            let p = problem(items, sacks);
            let reference = greedy_original(&p);

            let fresh = greedy(&p);
            assert_eq!(fresh.packing.placement(), reference.packing.placement(), "round {round}");
            assert_eq!(fresh.profit.to_bits(), reference.profit.to_bits(), "round {round}");

            // Reusing one index across repeated solves must not drift.
            let index = DensityIndex::new(&p);
            for _ in 0..3 {
                let reused = greedy_with_index(&p, &index);
                assert_eq!(reused.packing.placement(), reference.packing.placement());
                assert_eq!(reused.profit.to_bits(), reference.profit.to_bits());
            }

            // And the full warm-start chain stays put too.
            let ls_reference = local_search_original(&p, reference.clone(), 32);
            let ls_now = greedy_with_local_search(&p);
            assert_eq!(ls_now.packing.placement(), ls_reference.packing.placement());
            assert_eq!(ls_now.profit.to_bits(), ls_reference.profit.to_bits());
        }
    }

    /// One random instance of oracle family `family`: 0 profit ties and
    /// near-ties at the 1e-12 epsilon, 1 zero-size and zero-profit items,
    /// 2 a single sack, 3 more than 64 items (several summary-tree
    /// levels), 4 mesh-shaped (four items per sack under tight budgets,
    /// most items left out).
    fn oracle_instance(rng: &mut StdRng, family: usize) -> Problem {
        let (n, m) = match family {
            0 => (rng.gen_range(0..120), rng.gen_range(1..6)),
            1 => (rng.gen_range(0..90), rng.gen_range(1..5)),
            2 => (rng.gen_range(0..200), 1),
            3 => (rng.gen_range(65..400), rng.gen_range(1..20)),
            _ => {
                let m = rng.gen_range(16..120);
                (4 * m, m)
            }
        };
        let near = [0.0, 5e-13, 1e-12, 1.5e-12, 2e-12];
        let items: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| match family {
                0 => (
                    rng.gen_range(0.0..4.0f64).round(),
                    rng.gen_range(0.0..4.0f64).round(),
                    f64::from(rng.gen_range(0u8..4)) + near[rng.gen_range(0..near.len())],
                ),
                1 => {
                    let mut c =
                        [rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0), rng.gen_range(0.0..1.0)];
                    c.iter_mut().for_each(|x| {
                        if rng.gen_bool(0.3) {
                            *x = 0.0;
                        }
                    });
                    (c[0], c[1], c[2])
                }
                4 => (
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(0.0..1.0f64).powi(3),
                ),
                _ => (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0.0..1.0)),
            })
            .collect();
        let sacks: Vec<(f64, f64)> = (0..m)
            .map(|_| match family {
                2 => (rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
                4 => (rng.gen_range(0.3..1.2), rng.gen_range(0.3..1.2)),
                _ => (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
            })
            .collect();
        problem(items, sacks)
    }

    #[test]
    fn pruned_local_search_bit_identical_to_original() {
        let mut rng = StdRng::seed_from_u64(1212);
        let mut multi_round = 0;
        for family in 0..5 {
            for round in 0..30 {
                let p = oracle_instance(&mut rng, family);
                let n = p.num_items();
                // Start from greedy, from nothing, and from an arbitrary
                // (possibly overfull) placement that crowds a few sacks.
                let crowded = (0..n)
                    .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..p.num_sacks().min(3))))
                    .collect();
                let starts =
                    [greedy(&p).packing, Packing::empty(n), Packing::from_placement(crowded)];
                for start in starts {
                    let init = Solution { profit: start.profit(&p), packing: start };
                    for max_rounds in [1, 2, 32] {
                        let want = local_search_original(&p, init.clone(), max_rounds);
                        let got = local_search(&p, init.clone(), max_rounds);
                        let at = format!("family {family} round {round} max_rounds {max_rounds}");
                        assert_eq!(got.packing.placement(), want.packing.placement(), "{at}");
                        assert_eq!(got.profit.to_bits(), want.profit.to_bits(), "{at}");
                    }
                }
                if family == 4 {
                    let g = greedy(&p);
                    let one = local_search_original(&p, g.clone(), 1);
                    if one != local_search_original(&p, g, 32) {
                        multi_round += 1;
                    }
                }
            }
        }
        assert!(multi_round > 0, "no mesh-shaped instance needed a second round");
    }

    #[test]
    fn best_fit_keeps_room_for_large_items() {
        // Best-fit puts the small item in the small sack so the large item
        // still fits in the large sack. (First-fit into the large sack
        // would lose profit 10.)
        let p = problem(vec![(1.0, 0.0, 10.0), (4.0, 0.0, 10.0)], vec![(4.0, 0.0), (1.0, 0.0)]);
        let s = greedy(&p);
        assert_eq!(s.profit, 20.0);
    }
}
