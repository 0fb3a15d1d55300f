//! Reproductions of the paper's Tables 1-5.

use crate::metrics::mean;
use crate::report::{cycles, pct, Table};
use crate::workbench::{TraceFilter, Workbench};
use core::fmt;
use dircc_bus::{Breakdown, BusTiming, CostConfig, CostModel};
use dircc_core::EventCounters;

/// Table 1: timing for fundamental bus operations.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The fundamental timings.
    pub timing: BusTiming,
}

/// Builds Table 1 (pure configuration; no simulation needed).
pub fn table1() -> Table1 {
    Table1 { timing: BusTiming::PAPER }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table 1: Timing for fundamental bus operations",
            vec!["Operation", "Cycles"],
        );
        let rows = [
            ("Transfer 1 data word", self.timing.transfer_word),
            ("Invalidate", self.timing.invalidate),
            ("Wait for Directory", self.timing.wait_directory),
            ("Wait for Memory", self.timing.wait_memory),
            ("Wait for Cache", self.timing.wait_cache),
        ];
        for (name, v) in rows {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        write!(f, "{t}")
    }
}

/// Table 2: summary of bus cycle costs for both bus models.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The pipelined-bus cost model.
    pub pipelined: CostModel,
    /// The non-pipelined-bus cost model.
    pub non_pipelined: CostModel,
}

/// Builds Table 2 by deriving both cost models from Table 1.
pub fn table2() -> Table2 {
    Table2 { pipelined: CostModel::pipelined(), non_pipelined: CostModel::non_pipelined() }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table 2: Summary of bus cycle costs",
            vec!["Access type", "Pipelined Bus", "Non-Pipelined Bus"],
        );
        let rows: [(&str, u32, u32); 6] = [
            ("memory access", self.pipelined.mem_access, self.non_pipelined.mem_access),
            ("cache access", self.pipelined.cache_access, self.non_pipelined.cache_access),
            ("write-back", self.pipelined.write_back, self.non_pipelined.write_back),
            ("write-through / update", self.pipelined.write_word, self.non_pipelined.write_word),
            ("directory check", self.pipelined.dir_check, self.non_pipelined.dir_check),
            ("invalidate", self.pipelined.invalidate, self.non_pipelined.invalidate),
        ];
        for (name, p, np) in rows {
            t.row(vec![name.to_string(), p.to_string(), np.to_string()]);
        }
        write!(f, "{t}")
    }
}

/// One trace's Table 3 row (counts, like the paper, reported in thousands
/// by the display).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Trace name.
    pub name: String,
    /// Total references.
    pub refs: u64,
    /// Instruction fetches.
    pub instr: u64,
    /// Data reads.
    pub data_reads: u64,
    /// Data writes.
    pub data_writes: u64,
    /// User-mode references.
    pub user: u64,
    /// System-mode references.
    pub sys: u64,
    /// Fraction of data reads that are lock spins (§4.4 commentary).
    pub spin_fraction: f64,
}

/// Table 3: summary of trace characteristics.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per trace, paper order.
    pub rows: Vec<Table3Row>,
}

/// Builds Table 3 from the workbench's synthetic traces.
pub fn table3(wb: &Workbench) -> Table3 {
    let rows = (0..wb.num_traces())
        .map(|i| {
            let s = wb.trace_stats(i);
            Table3Row {
                name: wb.trace_names()[i].clone(),
                refs: s.total,
                instr: s.instr,
                data_reads: s.reads,
                data_writes: s.writes,
                user: s.total - s.system,
                sys: s.system,
                spin_fraction: s.spin_fraction_of_reads(),
            }
        })
        .collect();
    Table3 { rows }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table 3: Summary of trace characteristics (thousands of references)",
            vec!["Trace", "Refs", "Instr", "DRd", "DWrt", "User", "Sys", "spin/rd"],
        );
        let k = |v: u64| format!("{}", v / 1000);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                k(r.refs),
                k(r.instr),
                k(r.data_reads),
                k(r.data_writes),
                k(r.user),
                k(r.sys),
                format!("{:.2}", r.spin_fraction),
            ]);
        }
        write!(f, "{t}")
    }
}

/// The Table 4 event-frequency rows for one scheme, as percentages of all
/// references averaged over the traces.
#[derive(Debug, Clone)]
pub struct Table4Column {
    /// Scheme name (paper order: Dir1NB, WTI, Dir0B, Dragon).
    pub scheme: String,
    /// `(row label, mean percent)` pairs in Table 4 row order.
    pub rows: Vec<(&'static str, f64)>,
}

/// Table 4: event frequencies as a percentage of all references.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// One column per scheme.
    pub columns: Vec<Table4Column>,
}

impl Table4 {
    /// Looks up one cell by scheme and row label.
    pub fn cell(&self, scheme: &str, label: &str) -> Option<f64> {
        let col = self.columns.iter().find(|c| c.scheme == scheme)?;
        col.rows.iter().find(|(l, _)| *l == label).map(|(_, v)| *v)
    }
}

/// Table 4 row labels, in paper order.
pub const TABLE4_ROWS: [&str; 17] = [
    "instr",
    "read",
    "rd-hit",
    "rd-miss(rm)",
    "rm-blk-cln",
    "rm-blk-drty",
    "rm-first-ref",
    "write",
    "wrt-hit(wh)",
    "wh-blk-cln",
    "wh-blk-drty",
    "wh-distrib",
    "wh-local",
    "wrt-miss(wm)",
    "wm-blk-cln",
    "wm-blk-drty",
    "wm-first-ref",
];

fn table4_value(c: &EventCounters, label: &str) -> f64 {
    let v = match label {
        "instr" => c.instr(),
        "read" => c.reads(),
        "rd-hit" => c.read_hits(),
        "rd-miss(rm)" => c.rm(),
        "rm-blk-cln" => c.rm_blk_cln() + c.rm_blk_mem(),
        "rm-blk-drty" => c.rm_blk_drty(),
        "rm-first-ref" => c.rm_first_ref(),
        "write" => c.writes(),
        "wrt-hit(wh)" => c.wh(),
        "wh-blk-cln" => c.wh_blk_cln(),
        "wh-blk-drty" => c.wh_blk_drty(),
        "wh-distrib" => c.wh_distrib(),
        "wh-local" => c.wh_local(),
        "wrt-miss(wm)" => c.wm(),
        "wm-blk-cln" => c.wm_blk_cln() + c.wm_blk_mem(),
        "wm-blk-drty" => c.wm_blk_drty(),
        "wm-first-ref" => c.wm_first_ref(),
        _ => unreachable!("unknown Table 4 row {label}"),
    };
    c.pct(v)
}

/// Builds Table 4 by measuring each scheme's event frequencies on every
/// trace and averaging the percentages.
pub fn table4(wb: &Workbench) -> Table4 {
    let columns = wb
        .paper_kinds()
        .into_iter()
        .map(|kind| {
            let evals = wb.evaluations(kind, TraceFilter::Full);
            let rows = TABLE4_ROWS
                .into_iter()
                .map(|label| {
                    let vals: Vec<f64> =
                        evals.iter().map(|e| table4_value(&e.counters, label)).collect();
                    (label, mean(&vals))
                })
                .collect();
            Table4Column { scheme: kind.display_name(wb.n_caches()), rows }
        })
        .collect();
    Table4 { columns }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Event"];
        let names: Vec<&str> = self.columns.iter().map(|c| c.scheme.as_str()).collect();
        headers.extend(names);
        let mut t = Table::new("Table 4: Event frequencies (percent of all references)", headers);
        for (i, label) in TABLE4_ROWS.iter().enumerate() {
            let mut row = vec![label.to_string()];
            for col in &self.columns {
                row.push(pct(col.rows[i].1));
            }
            t.row(row);
        }
        write!(f, "{t}")
    }
}

/// Table 5: breakdown of bus cycles per reference (pipelined bus).
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Scheme names in paper order.
    pub schemes: Vec<String>,
    /// Per-scheme per-reference breakdowns, averaged over the traces.
    pub breakdowns: Vec<Breakdown>,
}

impl Table5 {
    /// Cumulative cycles/reference for a scheme by name.
    pub fn cumulative(&self, scheme: &str) -> Option<f64> {
        let i = self.schemes.iter().position(|s| s == scheme)?;
        Some(self.breakdowns[i].total())
    }
}

/// Builds Table 5 on the pipelined bus at the paper's base cost config.
pub fn table5(wb: &Workbench) -> Table5 {
    let m = CostModel::pipelined();
    let cfg = CostConfig::PAPER;
    let mut schemes = Vec::new();
    let mut breakdowns = Vec::new();
    for kind in wb.paper_kinds() {
        let evals = wb.evaluations(kind, TraceFilter::Full);
        let per_trace: Vec<Breakdown> =
            evals.iter().map(|e| e.breakdown_per_ref(&m, &cfg)).collect();
        let avg = Breakdown {
            mem_access: mean(&per_trace.iter().map(|b| b.mem_access).collect::<Vec<_>>()),
            write_back: mean(&per_trace.iter().map(|b| b.write_back).collect::<Vec<_>>()),
            invalidate: mean(&per_trace.iter().map(|b| b.invalidate).collect::<Vec<_>>()),
            write_update: mean(&per_trace.iter().map(|b| b.write_update).collect::<Vec<_>>()),
            dir_access: mean(&per_trace.iter().map(|b| b.dir_access).collect::<Vec<_>>()),
            aux: mean(&per_trace.iter().map(|b| b.aux).collect::<Vec<_>>()),
            overhead: mean(&per_trace.iter().map(|b| b.overhead).collect::<Vec<_>>()),
        };
        schemes.push(kind.display_name(wb.n_caches()));
        breakdowns.push(avg);
    }
    Table5 { schemes, breakdowns }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Access type"];
        headers.extend(self.schemes.iter().map(String::as_str));
        let mut t =
            Table::new("Table 5: Breakdown of bus cycles per reference (pipelined bus)", headers);
        type Category = (&'static str, fn(&Breakdown) -> f64);
        let categories: [Category; 5] = [
            ("mem access", |b| b.mem_access),
            ("write-back", |b| b.write_back),
            ("invalidate", |b| b.invalidate),
            ("wt or wup", |b| b.write_update),
            ("dir access", |b| b.dir_access),
        ];
        for (label, get) in categories {
            let mut row = vec![label.to_string()];
            row.extend(self.breakdowns.iter().map(|b| cycles(get(b))));
            t.row(row);
        }
        let mut row = vec!["cumulative".to_string()];
        row.extend(self.breakdowns.iter().map(|b| cycles(b.total())));
        t.row(row);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb() -> Workbench {
        Workbench::paper_scaled(60_000, 3)
    }

    #[test]
    fn table1_and_2_match_paper_constants() {
        let t1 = table1();
        assert_eq!(t1.timing.wait_memory, 2);
        assert!(t1.to_string().contains("Wait for Memory"));
        let t2 = table2();
        assert_eq!(t2.pipelined.mem_access, 5);
        assert_eq!(t2.non_pipelined.mem_access, 7);
        assert!(t2.to_string().contains("memory access"));
    }

    #[test]
    fn table3_reports_every_trace() {
        let wb = wb();
        let t3 = table3(&wb);
        assert_eq!(t3.rows.len(), 3);
        assert!(t3.rows.iter().all(|r| r.refs == 60_000));
        // POPS/THOR spin heavily; PERO does not.
        assert!(t3.rows[0].spin_fraction > 0.15);
        assert!(t3.rows[2].spin_fraction < 0.10);
        assert!(t3.to_string().contains("POPS"));
    }

    #[test]
    fn table4_shapes_match_paper() {
        let wb = wb();
        let t4 = table4(&wb);
        assert_eq!(t4.columns.len(), 4);
        // Dir1NB's read-miss rate dwarfs Dir0B's (paper: 5.18% vs 0.62%).
        let dir1 = t4.cell("Dir1NB", "rd-miss(rm)").unwrap();
        let dir0 = t4.cell("Dir0B", "rd-miss(rm)").unwrap();
        let dragon = t4.cell("Dragon", "rd-miss(rm)").unwrap();
        assert!(dir1 > 4.0 * dir0, "Dir1NB rm {dir1} vs Dir0B rm {dir0}");
        assert!(dragon <= dir0 + 1e-9, "Dragon has the native miss rate");
        // WTI and Dir0B share the state-change model.
        let wti = t4.cell("WTI", "rd-miss(rm)").unwrap();
        assert!((wti - dir0).abs() < 1e-9, "WTI rm {wti} == Dir0B rm {dir0}");
        // Instruction share ≈ half of references for every scheme.
        for col in &t4.columns {
            let instr = t4.cell(&col.scheme, "instr").unwrap();
            assert!((45.0..=55.0).contains(&instr), "{}: instr {instr}", col.scheme);
        }
        assert!(t4.to_string().contains("rm-blk-cln"));
    }

    #[test]
    fn table5_orders_schemes_like_the_paper() {
        let wb = wb();
        let t5 = table5(&wb);
        let dir1 = t5.cumulative("Dir1NB").unwrap();
        let wti = t5.cumulative("WTI").unwrap();
        let dir0 = t5.cumulative("Dir0B").unwrap();
        let dragon = t5.cumulative("Dragon").unwrap();
        assert!(dir1 > wti, "Dir1NB {dir1} > WTI {wti}");
        assert!(wti > dir0, "WTI {wti} > Dir0B {dir0}");
        assert!(dir0 > dragon, "Dir0B {dir0} > Dragon {dragon}");
        assert!(t5.to_string().contains("cumulative"));
    }
}
