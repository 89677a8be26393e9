use std::fmt;

/// Nesting order of the three tile loops, outermost first.
///
/// The innermost loop determines which operand stays resident in SRAM:
/// `K` innermost keeps the output tile stationary (accumulation on chip),
/// `N` innermost keeps the `A` tile stationary, `M` innermost the `B` tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// m → n → k (output-stationary).
    Mnk,
    /// m → k → n (A-stationary).
    Mkn,
    /// n → m → k (output-stationary, column-major sweep).
    Nmk,
    /// n → k → m (B-stationary).
    Nkm,
    /// k → m → n (A re-streamed per k).
    Kmn,
    /// k → n → m (B re-streamed per k).
    Knm,
}

impl LoopOrder {
    /// All six orders.
    pub const ALL: [LoopOrder; 6] = [
        LoopOrder::Mnk,
        LoopOrder::Mkn,
        LoopOrder::Nmk,
        LoopOrder::Nkm,
        LoopOrder::Kmn,
        LoopOrder::Knm,
    ];

    /// The loop variables outermost-to-innermost as characters.
    pub fn vars(self) -> [char; 3] {
        match self {
            LoopOrder::Mnk => ['m', 'n', 'k'],
            LoopOrder::Mkn => ['m', 'k', 'n'],
            LoopOrder::Nmk => ['n', 'm', 'k'],
            LoopOrder::Nkm => ['n', 'k', 'm'],
            LoopOrder::Kmn => ['k', 'm', 'n'],
            LoopOrder::Knm => ['k', 'n', 'm'],
        }
    }

    /// Depth (0 = outermost) of the deepest loop that indexes an operand
    /// touching the given loop variables. Used by the traffic model: an
    /// operand is re-fetched once per iteration of every loop at or above
    /// that depth. Invariant: the cost model asks only for the GEMM's
    /// three operands, each indexed by two of the three loop variables.
    #[allow(clippy::expect_used)]
    pub(crate) fn reload_depth(self, operand_vars: &[char]) -> usize {
        let vars = self.vars();
        vars.iter()
            .rposition(|v| operand_vars.contains(v))
            .expect("every operand touches at least one loop var")
    }
}

impl fmt::Display for LoopOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.vars();
        write!(f, "{}{}{}", v[0], v[1], v[2])
    }
}

/// One point in the schedule space: tile sizes, loop order, and whether
/// tile loads are double-buffered against compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Tile rows of the output.
    pub tile_m: usize,
    /// Tile columns of the output.
    pub tile_n: usize,
    /// Reduction tile length.
    pub tile_k: usize,
    /// Loop nesting order.
    pub loop_order: LoopOrder,
    /// Overlap DRAM transfers with compute (costs 2x tile SRAM).
    pub double_buffer: bool,
}

impl Schedule {
    /// The deliberately poor baseline: minimal tiles, `K`-outermost order
    /// (so the output is re-streamed per reduction step), no buffering.
    /// This is what "unscheduled" execution of an irregular compressed
    /// workload looks like, and the F3 comparison point.
    pub fn naive() -> Self {
        Schedule {
            tile_m: 8,
            tile_n: 8,
            tile_k: 8,
            loop_order: LoopOrder::Kmn,
            double_buffer: false,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}/{}{}",
            self.tile_m,
            self.tile_n,
            self.tile_k,
            self.loop_order,
            if self.double_buffer { "/db" } else { "" }
        )
    }
}

/// The searchable schedule space: candidate tile edges for each dimension
/// and the loop-order / buffering axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpace {
    /// Candidate tile sizes (shared by m, n, k).
    pub tile_options: Vec<usize>,
    /// Loop orders considered.
    pub loop_orders: Vec<LoopOrder>,
    /// Whether to consider double buffering.
    pub allow_double_buffer: bool,
}

impl Default for ScheduleSpace {
    fn default() -> Self {
        ScheduleSpace {
            tile_options: vec![8, 16, 32, 64, 128],
            loop_orders: LoopOrder::ALL.to_vec(),
            allow_double_buffer: true,
        }
    }
}

impl ScheduleSpace {
    /// Number of schedules in the space.
    pub fn len(&self) -> usize {
        let db = if self.allow_double_buffer { 2 } else { 1 };
        self.tile_options.len().pow(3) * self.loop_orders.len() * db
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.tile_options.is_empty() || self.loop_orders.is_empty()
    }

    /// Iterates over every schedule in the space.
    pub fn iter(&self) -> impl Iterator<Item = Schedule> + '_ {
        let dbs: &[bool] = if self.allow_double_buffer {
            &[false, true]
        } else {
            &[false]
        };
        self.tile_options.iter().flat_map(move |&tm| {
            self.tile_options.iter().flat_map(move |&tn| {
                self.tile_options.iter().flat_map(move |&tk| {
                    self.loop_orders.iter().flat_map(move |&lo| {
                        dbs.iter().map(move |&db| Schedule {
                            tile_m: tm,
                            tile_n: tn,
                            tile_k: tk,
                            loop_order: lo,
                            double_buffer: db,
                        })
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_len_matches_iteration() {
        let space = ScheduleSpace::default();
        assert_eq!(space.iter().count(), space.len());
        assert_eq!(space.len(), 125 * 6 * 2);
    }

    #[test]
    fn reload_depth_output_stationary() {
        // order m,n,k: C indexed by (m,n) -> deepest is n at depth 1
        assert_eq!(LoopOrder::Mnk.reload_depth(&['m', 'n']), 1);
        // A indexed by (m,k) -> deepest is k at depth 2
        assert_eq!(LoopOrder::Mnk.reload_depth(&['m', 'k']), 2);
    }

    #[test]
    fn display_formats() {
        let s = Schedule {
            tile_m: 32,
            tile_n: 64,
            tile_k: 16,
            loop_order: LoopOrder::Mnk,
            double_buffer: true,
        };
        assert_eq!(s.to_string(), "32x64x16/mnk/db");
        assert_eq!(Schedule::naive().to_string(), "8x8x8/kmn");
    }

    #[test]
    fn all_orders_have_distinct_vars() {
        for lo in LoopOrder::ALL {
            let mut v = lo.vars();
            v.sort();
            assert_eq!(v, ['k', 'm', 'n']);
        }
    }

    #[test]
    fn empty_space_detected() {
        let s = ScheduleSpace {
            tile_options: vec![],
            ..Default::default()
        };
        assert!(s.is_empty());
    }
}
