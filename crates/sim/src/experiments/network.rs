//! Directory storage and interconnection-network studies: the two §6/§7
//! scaling arguments made quantitative.

use crate::engine::{run_indexed, RunConfig};
use crate::par::par_map_indexed;
use crate::report::Table;
use core::fmt;
use dircc_bus::{network_cost_per_ref, CostConfig, MeshModel};
use dircc_core::{directory_bits_per_block, EventCounters, ProtocolKind};
use dircc_trace::gen::Profile;
use dircc_trace::store::{TraceFilter, TraceStore};

/// Tag bits assumed for Tang's duplicated tag stores.
const TAG_BITS: u32 = 20;
/// Data bits per block (the paper's 16-byte blocks).
const BLOCK_BITS: u64 = 128;

/// Directory storage per block for every directory scheme at several
/// machine sizes.
#[derive(Debug, Clone)]
pub struct StorageTable {
    /// Machine sizes tabulated.
    pub sizes: Vec<usize>,
    /// `(scheme name, bits per block at each size)` rows.
    pub rows: Vec<(String, Vec<u64>)>,
}

impl StorageTable {
    /// Bits per block for `(scheme, size)`.
    pub fn bits(&self, scheme: &str, size: usize) -> Option<u64> {
        let col = self.sizes.iter().position(|s| *s == size)?;
        self.rows.iter().find(|(s, _)| s == scheme).map(|(_, v)| v[col])
    }
}

/// A scheme's kind as a function of machine size (full-map pointers grow
/// with `n`).
type KindForSize = Box<dyn Fn(usize) -> ProtocolKind>;

/// Builds the storage table for the §6 schemes.
pub fn storage_table() -> StorageTable {
    let sizes = vec![4usize, 16, 64];
    let kinds: Vec<(String, KindForSize)> = vec![
        ("Dir0B".into(), Box::new(|_| ProtocolKind::Dir0B)),
        ("Dir1B".into(), Box::new(|_| ProtocolKind::DirB { pointers: 1 })),
        ("Dir2NB".into(), Box::new(|_| ProtocolKind::DirNb { pointers: 2 })),
        ("DirCodedNB".into(), Box::new(|_| ProtocolKind::CodedSet)),
        ("DirnNB".into(), Box::new(|n| ProtocolKind::DirNb { pointers: n as u32 })),
        ("Tang".into(), Box::new(|_| ProtocolKind::Tang)),
    ];
    let rows = kinds
        .into_iter()
        .map(|(name, kind_for)| {
            let bits =
                sizes.iter().map(|&n| directory_bits_per_block(kind_for(n), n, TAG_BITS)).collect();
            (name, bits)
        })
        .collect();
    StorageTable { sizes, rows }
}

impl fmt::Display for StorageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = std::iter::once("scheme".to_string())
            .chain(self.sizes.iter().map(|n| format!("bits/blk @n={n}")))
            .chain(std::iter::once(format!("overhead @n={}", self.sizes.last().unwrap())))
            .collect();
        let mut t = Table::new(
            "Directory storage per memory block (section 6 motivation)",
            headers.iter().map(String::as_str).collect(),
        );
        for (name, bits) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(bits.iter().map(|b| b.to_string()));
            row.push(format!("{:.1}%", 100.0 * *bits.last().unwrap() as f64 / BLOCK_BITS as f64));
            t.row(row);
        }
        write!(f, "{t}")
    }
}

/// One (scheme, machine size) network measurement.
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// Scheme name at this size.
    pub scheme: String,
    /// Flit-hops of network capacity consumed per reference.
    pub flit_hops_per_ref: f64,
}

/// The mesh-network study: the §2 claim that directed coherence messages
/// suit arbitrary interconnects, priced on 2-D meshes.
#[derive(Debug, Clone)]
pub struct NetworkStudy {
    /// Mesh node counts.
    pub sizes: Vec<u32>,
    /// Rows per size.
    pub rows: Vec<Vec<NetworkRow>>,
}

impl NetworkStudy {
    /// Flit-hops/ref for `(scheme, size)`.
    pub fn cost(&self, scheme: &str, size: u32) -> Option<f64> {
        let i = self.sizes.iter().position(|s| *s == size)?;
        self.rows[i].iter().find(|r| r.scheme == scheme).map(|r| r.flit_hops_per_ref)
    }
}

fn measure(store: &TraceStore, kind: ProtocolKind, cpus: u16) -> EventCounters {
    let cfg = RunConfig::default().with_process_sharing();
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    let result = run_indexed(kind, usize::from(cpus), &soa, &cfg);
    result.expect("network replay").counters
}

/// Runs the network study on 16/36/64-node meshes, fanning the
/// (mesh size × scheme) runs out over `jobs` threads. Each mesh size's
/// trace is generated once into a shared [`TraceStore`], so results are
/// deterministic and independent of `jobs`.
pub fn network_study(refs: u64, seed: u64, jobs: usize) -> NetworkStudy {
    let sizes = vec![16u32, 36, 64];
    let cfg = CostConfig::PAPER;
    let kinds_at = |nodes: u32| {
        [
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::DirNb { pointers: nodes },
            ProtocolKind::CodedSet,
        ]
    };
    let stores: Vec<TraceStore> = sizes
        .iter()
        .map(|&nodes| {
            TraceStore::new(
                vec![Profile::custom().with_cpus(nodes as u16).with_total_refs(refs)],
                seed,
            )
        })
        .collect();
    let work: Vec<(usize, ProtocolKind)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, &nodes)| kinds_at(nodes).into_iter().map(move |k| (si, k)))
        .collect();
    let flat = par_map_indexed(work.len(), jobs, |i| {
        let (si, kind) = work[i];
        let nodes = sizes[si];
        let counters = measure(&stores[si], kind, nodes as u16);
        NetworkRow {
            scheme: kind.display_name(nodes as usize),
            flit_hops_per_ref: network_cost_per_ref(
                kind,
                MeshModel::for_nodes(nodes),
                &counters,
                &cfg,
            ),
        }
    });
    let per_size = work.len() / sizes.len();
    let rows = flat.chunks(per_size).map(<[NetworkRow]>::to_vec).collect();
    NetworkStudy { sizes, rows }
}

impl fmt::Display for NetworkStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: coherence traffic on 2-D meshes (flit-hops per reference)\n\
             (directed messages pay hops; broadcasts must reach every node)"
        )?;
        for (i, nodes) in self.sizes.iter().enumerate() {
            let mut t = Table::new(format!("  {nodes} nodes"), vec!["scheme", "flit-hops/ref"]);
            for r in &self.rows[i] {
                t.row(vec![r.scheme.clone(), format!("{:.4}", r.flit_hops_per_ref)]);
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_shapes() {
        let s = storage_table();
        // Dir0B is flat; the full map grows linearly; coded grows as log.
        assert_eq!(s.bits("Dir0B", 4), Some(2));
        assert_eq!(s.bits("Dir0B", 64), Some(2));
        assert_eq!(s.bits("DirnNB", 4), Some(5));
        assert_eq!(s.bits("DirnNB", 64), Some(65));
        assert_eq!(s.bits("DirCodedNB", 64), Some(13));
        assert!(s.bits("Tang", 64).unwrap() > s.bits("DirnNB", 64).unwrap());
        assert!(s.to_string().contains("Directory storage"));
    }

    #[test]
    fn broadcast_schemes_lose_on_big_meshes() {
        let n = network_study(40_000, 9, 2);
        // On 64 nodes, Dir0B's broadcasts make it costlier per reference
        // than the full map's directed invalidations — reversing the bus
        // result and confirming the paper's scaling thesis.
        let dir0b = n.cost("Dir0B", 64).unwrap();
        let full = n.cost("DirnNB", 64).unwrap();
        assert!(dir0b > full, "64-node mesh: Dir0B ({dir0b}) must exceed DirnNB ({full})");
        // Dir1B stays close to the full map (broadcasts rare).
        let dir1b = n.cost("Dir1B", 64).unwrap();
        assert!(dir1b < dir0b);
        assert!(n.to_string().contains("64 nodes"));
    }

    #[test]
    fn network_study_is_deterministic_across_job_counts() {
        let a = network_study(8_000, 7, 1);
        let b = network_study(8_000, 7, 4);
        for (ra, rb) in a.rows.iter().flatten().zip(b.rows.iter().flatten()) {
            assert_eq!(ra.scheme, rb.scheme);
            assert_eq!(ra.flit_hops_per_ref.to_bits(), rb.flit_hops_per_ref.to_bits());
        }
    }

    #[test]
    fn costs_grow_with_mesh_size() {
        let n = network_study(30_000, 4, 2);
        for scheme in ["DirnNB", "Dir1B"] {
            let small = n.cost(scheme, 16).unwrap();
            let big = n.cost(scheme, 64).unwrap();
            assert!(big > small, "{scheme}: hops grow with distance ({small} -> {big})");
        }
    }
}
