//! The knowledge-base facade consumed by the Data Broker and Scheduler.
//!
//! Two decisions come out of the knowledge base (§III-A.1(ii)):
//!
//! 1. **Chunk size** — "the Data Broker will query the SCAN knowledge-base
//!    to decide the suitable chunk size of input files of tasks". We rank
//!    ingested application instances by execution time per GB with a real
//!    SPARQL query (the engine in [`crate::sparql`]) and recommend the
//!    input size of the most efficient observation, clamped to a sane
//!    range. With no observations, the paper's default of 2 GB is used
//!    ("In our case, the inputs will be 2GB for each task").
//! 2. **Stage models** — the scheduler's ETT estimator needs per-stage
//!    `a, b, c` coefficients. These are *learned* from the ingested
//!    profiles by least squares ([`crate::regression`]), not read from the
//!    paper's table, so the platform genuinely runs on knowledge-base
//!    output.

use crate::ontology::{iri, Ontology};
use crate::profile::ProfileRecord;
use crate::regression::{amdahl_fit, linear_fit};
use crate::sparql::parse_query;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Sharding advice for one application's input data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkAdvice {
    /// Recommended chunk size in GB.
    pub chunk_gb: f64,
    /// Number of shards for the given total input size.
    pub shards: u32,
    /// Suggested CPU cores per task, from the best-ranked instance.
    pub cpu: u32,
    /// Suggested RAM (GB) per task.
    pub ram_gb: f64,
    /// True when the advice came from ingested profiles rather than the
    /// built-in default.
    pub informed: bool,
}

/// A learned per-stage performance model: `E(d) = a·d + b`, threaded via
/// Amdahl fraction `c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageModelEstimate {
    /// Linear coefficient (time per GB).
    pub a: f64,
    /// Constant term.
    pub b: f64,
    /// Amdahl parallelisable fraction.
    pub c: f64,
    /// R² of the (d, time) fit.
    pub r_squared_linear: f64,
    /// R² of the threading fit.
    pub r_squared_amdahl: f64,
    /// Observations used.
    pub observations: usize,
}

impl StageModelEstimate {
    /// Single-threaded execution time at input size `d` GB.
    pub fn exec_time(&self, d_gb: f64) -> f64 {
        (self.a * d_gb + self.b).max(0.0)
    }

    /// Threaded execution time with `t` threads at input size `d` GB
    /// (the paper's `T_i(t, d) = c·E_i(d)/t + (1−c)·E_i(d)`).
    pub fn threaded_time(&self, threads: u32, d_gb: f64) -> f64 {
        assert!(threads >= 1);
        let e = self.exec_time(d_gb);
        self.c * e / threads as f64 + (1.0 - self.c) * e
    }
}

/// The paper's default chunk size, GB.
pub const DEFAULT_CHUNK_GB: f64 = 2.0;

/// Bounds on recommended chunk sizes (§II-A.3: GATK operates best around
/// 2 GB; whole-genome inputs of 100 GB+ must be sharded).
const MIN_CHUNK_GB: f64 = 0.25;
const MAX_CHUNK_GB: f64 = 16.0;

/// Ingested profiles as columns, in ingestion order. The stage fits read
/// these columns; the RDF view is replayed from them on first query.
#[derive(Debug, Clone, Default)]
struct ProfileTable {
    /// Distinct application names; the `app` column indexes into it.
    apps: Vec<Cow<'static, str>>,
    app: Vec<u32>,
    stage: Vec<u32>,
    input_gb: Vec<f64>,
    threads: Vec<u32>,
    ram_gb: Vec<f64>,
    e_time: Vec<f64>,
}

impl ProfileTable {
    fn push(&mut self, rec: &ProfileRecord) {
        let app = match self.apps.iter().position(|a| *a == rec.application) {
            Some(i) => i,
            None => {
                self.apps.push(rec.application.clone());
                self.apps.len() - 1
            }
        };
        self.app.push(app as u32);
        self.stage.push(rec.stage);
        self.input_gb.push(rec.input_gb);
        self.threads.push(rec.threads);
        self.ram_gb.push(rec.ram_gb);
        self.e_time.push(rec.e_time);
    }

    fn len(&self) -> usize {
        self.app.len()
    }

    fn record(&self, row: usize) -> ProfileRecord {
        ProfileRecord {
            application: self.apps[self.app[row] as usize].clone(),
            stage: self.stage[row],
            input_gb: self.input_gb[row],
            threads: self.threads[row],
            ram_gb: self.ram_gb[row],
            e_time: self.e_time[row],
        }
    }

    /// Rows that [`Ontology::profiles_of`]`(class)` reads back from the
    /// view, in ingestion order: rows of `class` itself or of any schema
    /// subclass of it, and every row for `Application`, which
    /// [`Ontology::ingest_profile`] also types each individual as.
    fn rows_of<'a>(&'a self, class: &str) -> impl Iterator<Item = usize> + 'a {
        let covered: Vec<bool> = self
            .apps
            .iter()
            .map(|app| {
                class == "Application"
                    || std::iter::successors(Some(app.as_ref()), |c| Ontology::schema_superclass(c))
                        .any(|c| c == class)
            })
            .collect();
        (0..self.len()).filter(move |&row| covered[self.app[row] as usize])
    }
}

/// The SCAN knowledge base: ingested profiles plus the decision layer.
///
/// Profiles live in a columnar table that the stage fits read directly.
/// The [`Ontology`] view (schema plus one named individual per profile)
/// is built on the first [`KnowledgeBase::ontology`] or
/// [`KnowledgeBase::advise_chunk`] call and kept current by later
/// ingests, so callers that only fit models never pay for it.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    profiles: ProfileTable,
    view: OnceLock<Ontology>,
}

impl KnowledgeBase {
    /// A knowledge base seeded with the SCAN schema (domain + cloud
    /// ontologies and linker) but no profiling instances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the ontology: the SCAN schema plus every ingested
    /// profile as a named individual, built on first access.
    pub fn ontology(&self) -> &Ontology {
        self.view.get_or_init(|| {
            let mut ontology = Ontology::with_scan_schema();
            for row in 0..self.profiles.len() {
                ontology.ingest_profile(&self.profiles.record(row));
            }
            ontology
        })
    }

    /// Ingests a task log record ("the SCAN keeps the log information of
    /// each task scheduled to run in a cloud").
    pub fn ingest(&mut self, record: &ProfileRecord) {
        self.profiles.push(record);
        if let Some(ontology) = self.view.get_mut() {
            ontology.ingest_profile(record);
        }
    }

    /// Number of ingested profile individuals for `application`.
    pub fn profile_count(&self, application: &str) -> usize {
        self.profiles.rows_of(application).count()
    }

    /// Chunk-size advice for splitting `total_gb` of input for
    /// `application`, via a SPARQL ranking query over the ingested
    /// instances.
    pub fn advise_chunk(&self, application: &str, total_gb: f64) -> ChunkAdvice {
        assert!(total_gb > 0.0, "advise_chunk requires a positive input size");

        // The Data Broker's query, ranked by time-per-GB ascending — the
        // paper's "selected GATK instances are ranked according to the
        // values of their execution time and the size of input files".
        let query_text = format!(
            "PREFIX scan: <{ns}>
             SELECT ?app ?size ?t ?cpu ?ram WHERE {{
                 ?app a scan:Application .
                 ?app scan:inputFileSize ?size .
                 ?app scan:eTime ?t .
                 ?app scan:CPU ?cpu .
                 OPTIONAL {{ ?app scan:RAM ?ram . }}
                 FILTER (?size > 0 && ?t > 0)
             }} ORDER BY ASC(?t / ?size) LIMIT 25",
            ns = iri::SCAN_NS
        );
        let ontology = self.ontology();
        let query = parse_query(&query_text).expect("advise_chunk query is well-formed");
        let results = query.execute(ontology.store()).expect("query evaluates");

        // Keep only instances of the requested application class, by
        // `rdf:type` with subclass reasoning (the SPARQL subset has no
        // subclass inference in the pattern itself).
        let instances = ontology
            .lookup_class(application)
            .map(|c| ontology.instances_of(c))
            .unwrap_or_default();
        let best = results.rows().iter().find(|row| {
            row.get("app")
                .and_then(|t| t.as_iri())
                .and_then(|iri| ontology.store().nodes().lookup_iri(iri))
                .is_some_and(|id| instances.binary_search(&id).is_ok())
        });

        match best {
            Some(row) => {
                let chunk = row.get("size").and_then(|t| t.as_f64()).unwrap_or(DEFAULT_CHUNK_GB);
                let chunk = chunk.clamp(MIN_CHUNK_GB, MAX_CHUNK_GB);
                let cpu = row.get("cpu").and_then(|t| t.as_f64()).unwrap_or(1.0) as u32;
                let ram_gb = row.get("ram").and_then(|t| t.as_f64()).unwrap_or(4.0);
                ChunkAdvice {
                    chunk_gb: chunk,
                    shards: shards_for(total_gb, chunk),
                    cpu: cpu.max(1),
                    ram_gb,
                    informed: true,
                }
            }
            None => ChunkAdvice {
                chunk_gb: DEFAULT_CHUNK_GB,
                shards: shards_for(total_gb, DEFAULT_CHUNK_GB),
                cpu: 1,
                ram_gb: 4.0,
                informed: false,
            },
        }
    }

    /// Learns the `E(d) = a·d + b`, Amdahl-`c` model of one pipeline stage
    /// of `application` from ingested profiles. Returns `None` until
    /// enough observations exist (≥ 2 distinct single-thread sizes).
    pub fn stage_model(&self, application: &str, stage: u32) -> Option<StageModelEstimate> {
        let t = &self.profiles;
        let observations: Vec<Observation> = t
            .rows_of(application)
            .filter(|&row| t.stage[row] == stage)
            .map(|row| (t.input_gb[row], t.threads[row], t.e_time[row]))
            .collect();
        fit_stage(&observations)
    }

    /// Learns models for stages `1..=n_stages`, keyed by stage index.
    pub fn stage_models(
        &self,
        application: &str,
        n_stages: u32,
    ) -> BTreeMap<u32, StageModelEstimate> {
        (1..=n_stages).filter_map(|s| self.stage_model(application, s).map(|m| (s, m))).collect()
    }
}

/// One profile as the stage fit sees it: `(input_gb, threads, e_time)`.
type Observation = (f64, u32, f64);

/// Fits one stage's model from its observations, in ingestion order.
/// `None` without ≥ 2 distinct single-thread sizes.
fn fit_stage(observations: &[Observation]) -> Option<StageModelEstimate> {
    if observations.is_empty() {
        return None;
    }

    // (a, b) from single-threaded observations.
    let single: Vec<(f64, f64)> =
        observations.iter().filter(|o| o.1 == 1).map(|&(d, _, time)| (d, time)).collect();
    let lin = linear_fit(&single)?;

    // c from multi-threaded observations, normalised by predicted E(d):
    // T/E(d) = c/t + (1−c), linear in 1/t.
    let mut normalised: Vec<(u32, f64)> = Vec::new();
    for &(d, threads, time) in observations {
        let e = lin.predict(d);
        if e > 1e-9 {
            normalised.push((threads, time / e));
        }
    }
    let c = match amdahl_fit(&normalised) {
        Some(fit) => fit,
        // All observations single-threaded → assume serial (c = 0).
        None => crate::regression::AmdahlFit {
            c: 0.0,
            single_thread_time: 1.0,
            r_squared: 1.0,
            n: normalised.len(),
        },
    };

    Some(StageModelEstimate {
        a: lin.slope,
        b: lin.intercept,
        c: c.c,
        r_squared_linear: lin.r_squared,
        r_squared_amdahl: c.r_squared,
        observations: observations.len(),
    })
}

/// Number of shards needed to cover `total_gb` at `chunk_gb` per shard.
pub fn shards_for(total_gb: f64, chunk_gb: f64) -> u32 {
    assert!(chunk_gb > 0.0);
    (total_gb / chunk_gb).ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle::to_turtle;
    use proptest::prelude::*;

    fn kb_with_paper_instances() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        // §III-A.1's GATK1..GATK4, all at 8 threads, stage 1.
        for (size, etime) in [(10.0, 180.0), (5.0, 200.0), (20.0, 280.0), (4.0, 80.0)] {
            kb.ingest(&ProfileRecord {
                application: "GATK".into(),
                stage: 1,
                input_gb: size,
                threads: 8,
                ram_gb: 4.0,
                e_time: etime,
            });
        }
        kb
    }

    #[test]
    fn uninformed_advice_uses_paper_default() {
        let kb = KnowledgeBase::new();
        let advice = kb.advise_chunk("GATK", 100.0);
        assert!(!advice.informed);
        assert_eq!(advice.chunk_gb, 2.0);
        assert_eq!(advice.shards, 50);
    }

    #[test]
    fn informed_advice_picks_best_time_per_gb() {
        let kb = kb_with_paper_instances();
        let advice = kb.advise_chunk("GATK", 100.0);
        assert!(advice.informed);
        // Best t/size ratio among the four is GATK3 (280/20 = 14), but 20 GB
        // exceeds MAX_CHUNK_GB and is clamped to 16.
        assert_eq!(advice.chunk_gb, 16.0);
        assert_eq!(advice.cpu, 8);
        assert_eq!(advice.shards, shards_for(100.0, 16.0));
    }

    #[test]
    fn advice_is_per_application() {
        let mut kb = kb_with_paper_instances();
        kb.ingest(&ProfileRecord {
            application: "BWA".into(),
            stage: 1,
            input_gb: 1.0,
            threads: 4,
            ram_gb: 8.0,
            e_time: 5.0, // much better per-GB than any GATK row
        });
        let advice = kb.advise_chunk("BWA", 10.0);
        assert_eq!(advice.chunk_gb, 1.0);
        assert_eq!(advice.shards, 10);
        // GATK advice unchanged by the BWA row.
        let gatk = kb.advise_chunk("GATK", 100.0);
        assert_eq!(gatk.chunk_gb, 16.0);
    }

    #[test]
    fn advice_matches_the_class_not_an_iri_prefix() {
        // `GATK4`'s individuals (`GATK41`, …) share the `GATK` IRI
        // prefix; they must not answer a `GATK` query.
        let mut kb = KnowledgeBase::new();
        for (application, input_gb, e_time) in [("GATK", 4.0, 40.0), ("GATK4", 1.0, 5.0)] {
            kb.ingest(&ProfileRecord {
                application: Cow::Borrowed(application),
                stage: 1,
                input_gb,
                threads: 1,
                ram_gb: 4.0,
                e_time,
            });
        }
        assert_eq!(kb.advise_chunk("GATK", 100.0).chunk_gb, 4.0);
        assert_eq!(kb.advise_chunk("GATK4", 100.0).chunk_gb, 1.0);
        // Subclass reasoning: a superclass query sees every application.
        assert_eq!(kb.advise_chunk("Application", 100.0).chunk_gb, 1.0);
    }

    #[test]
    fn superclass_queries_follow_the_schema() {
        // `VariantData` is a schema subclass of `GenomicData`; `GATK` is
        // not. Every row is also an `Application` individual.
        let mut kb = KnowledgeBase::new();
        for application in ["VariantData", "GATK", "NovelTool"] {
            kb.ingest(&ProfileRecord {
                application: Cow::Borrowed(application),
                ..ProfileRecord::gatk(1, 1.0, 2.0)
            });
        }
        for (class, rows) in [("GenomicData", 1), ("Application", 3), ("GATK", 1), ("BWA", 0)] {
            assert_eq!(kb.profile_count(class), rows, "{class}");
            assert_eq!(kb.ontology().profiles_of(class).len(), rows, "{class}");
        }
    }

    #[test]
    fn view_is_built_on_first_query_only() {
        let mut kb = kb_with_paper_instances();
        assert!(kb.stage_model("GATK", 1).is_none());
        assert_eq!(kb.profile_count("GATK"), 4);
        assert!(kb.view.get().is_none(), "fits must not build the triple view");
        assert_eq!(kb.ontology().profiles_of("GATK").len(), 4);
        // Later ingests keep the built view current.
        kb.ingest(&ProfileRecord::gatk(1, 2.0, 9.0));
        assert_eq!(kb.ontology().profiles_of("GATK").len(), 5);
    }

    #[test]
    fn paper_sharding_example() {
        // "divide a 100GB FASTQ file into 25 4GB files"
        let mut kb = KnowledgeBase::new();
        kb.ingest(&ProfileRecord {
            application: "BWA".into(),
            stage: 1,
            input_gb: 4.0,
            threads: 1,
            ram_gb: 8.0,
            e_time: 10.0,
        });
        let advice = kb.advise_chunk("BWA", 100.0);
        assert_eq!(advice.chunk_gb, 4.0);
        assert_eq!(advice.shards, 25);
    }

    #[test]
    fn stage_model_learned_from_profiles() {
        let mut kb = KnowledgeBase::new();
        // Ground truth: stage 3 of Table II (a=1.74, b=3.93, c=0.69).
        let (a, b, c) = (1.74, 3.93, 0.69);
        for d in [1.0, 2.0, 4.0, 6.0, 9.0] {
            let e = a * d + b;
            for t in [1u32, 2, 4, 8] {
                kb.ingest(&ProfileRecord {
                    application: "GATK".into(),
                    stage: 3,
                    input_gb: d,
                    threads: t,
                    ram_gb: 4.0,
                    e_time: c * e / t as f64 + (1.0 - c) * e,
                });
            }
        }
        let m = kb.stage_model("GATK", 3).expect("model learned");
        assert!((m.a - a).abs() < 1e-9, "a = {}", m.a);
        assert!((m.b - b).abs() < 1e-9, "b = {}", m.b);
        assert!((m.c - c).abs() < 1e-9, "c = {}", m.c);
        assert!(m.r_squared_linear > 0.999);
        // And the estimator matches the analytic model.
        assert!(
            (m.threaded_time(4, 5.0) - (c * (a * 5.0 + b) / 4.0 + (1.0 - c) * (a * 5.0 + b))).abs()
                < 1e-9
        );
    }

    #[test]
    fn stage_model_needs_single_thread_points() {
        let mut kb = KnowledgeBase::new();
        kb.ingest(&ProfileRecord {
            application: "GATK".into(),
            stage: 1,
            input_gb: 2.0,
            threads: 8,
            ram_gb: 4.0,
            e_time: 3.0,
        });
        assert!(kb.stage_model("GATK", 1).is_none());
    }

    #[test]
    fn stage_model_single_threaded_only_assumes_serial() {
        let mut kb = KnowledgeBase::new();
        for d in [1.0, 2.0, 3.0] {
            kb.ingest(&ProfileRecord {
                application: "GATK".into(),
                stage: 2,
                input_gb: d,
                threads: 1,
                ram_gb: 4.0,
                e_time: 2.7 * d - 0.53,
            });
        }
        let m = kb.stage_model("GATK", 2).unwrap();
        assert!((m.a - 2.7).abs() < 1e-9);
        assert_eq!(m.c, 0.0);
        // threaded_time degenerates to exec_time.
        assert_eq!(m.threaded_time(8, 2.0), m.exec_time(2.0));
    }

    #[test]
    fn stage_models_collects_only_learned() {
        let kb = kb_with_paper_instances(); // 8-thread rows only → no model
        assert!(kb.stage_models("GATK", 7).is_empty());
    }

    #[test]
    fn exec_time_clamps_negative_extrapolation() {
        // Stage 2 has b = −0.53; at tiny d the raw line is negative.
        let m = StageModelEstimate {
            a: 2.7,
            b: -0.53,
            c: 0.02,
            r_squared_linear: 1.0,
            r_squared_amdahl: 1.0,
            observations: 4,
        };
        assert_eq!(m.exec_time(0.1), 0.0);
        assert!(m.exec_time(1.0) > 0.0);
    }

    #[test]
    fn shards_for_rounds_up() {
        assert_eq!(shards_for(100.0, 4.0), 25);
        assert_eq!(shards_for(101.0, 4.0), 26);
        assert_eq!(shards_for(0.5, 2.0), 1);
    }

    /// The fit of `application`'s `stage` through the triple view: the
    /// rows `profiles_of` reads back, in its order.
    fn view_fit(ontology: &Ontology, application: &str, stage: u32) -> Option<StageModelEstimate> {
        let observations: Vec<Observation> = ontology
            .profiles_of(application)
            .iter()
            .filter(|p| p.stage == stage)
            .map(|p| (p.input_gb, p.threads, p.e_time))
            .collect();
        fit_stage(&observations)
    }

    fn bits(m: Option<StageModelEstimate>) -> Option<[u64; 6]> {
        m.map(|m| {
            [
                m.a.to_bits(),
                m.b.to_bits(),
                m.c.to_bits(),
                m.r_squared_linear.to_bits(),
                m.r_squared_amdahl.to_bits(),
                m.observations as u64,
            ]
        })
    }

    proptest! {
        /// The table-backed fits equal a refit through the triple view
        /// bit-for-bit, for every application, stage and the superclass
        /// `Application`, wherever in the ingestion sequence the view is
        /// first built; and the lazily built view is the eagerly built
        /// one, triple for triple.
        ///
        /// Each row is `(app, stage, threads index, input_gb, e_time)`
        /// over apps GATK, GATK1 (an IRI prefix of GATK's individuals),
        /// BWA and NovelTool (no schema class).
        #[test]
        fn prop_table_fits_match_the_view_refit(
            rows in proptest::collection::vec(
                (0usize..4, 1u32..8, 0usize..5, 0.5f64..10.0, 0.1f64..100.0),
                1..160,
            ),
            view_at in 0usize..200,
        ) {
            const APPS: [&str; 4] = ["GATK", "GATK1", "BWA", "NovelTool"];
            const THREADS: [u32; 5] = [1, 2, 4, 8, 16];
            let mut kb = KnowledgeBase::new();
            let mut eager = Ontology::with_scan_schema();
            for (i, &(app, stage, t, input_gb, e_time)) in rows.iter().enumerate() {
                if i == view_at {
                    let _ = kb.ontology();
                }
                let rec = ProfileRecord {
                    application: Cow::Borrowed(APPS[app]),
                    stage,
                    input_gb,
                    threads: THREADS[t],
                    ram_gb: 4.0,
                    e_time,
                };
                kb.ingest(&rec);
                eager.ingest_profile(&rec);
            }
            let queried = APPS.iter().copied().chain(["Application", "GenomicData"]);
            let table: Vec<_> = queried
                .clone()
                .map(|app| {
                    let fits: Vec<_> = (1..=7).map(|s| bits(kb.stage_model(app, s))).collect();
                    (kb.profile_count(app), fits)
                })
                .collect();
            let ontology = kb.ontology();
            let view: Vec<_> = queried
                .map(|app| {
                    let fits: Vec<_> = (1..=7).map(|s| bits(view_fit(ontology, app, s))).collect();
                    (ontology.profiles_of(app).len(), fits)
                })
                .collect();
            prop_assert_eq!(table, view);
            let prefixes = [("scan", iri::SCAN_NS)];
            prop_assert_eq!(to_turtle(ontology.store(), &prefixes), to_turtle(eager.store(), &prefixes));
        }
    }

    #[test]
    #[should_panic(expected = "positive input size")]
    fn advise_chunk_rejects_zero_input() {
        KnowledgeBase::new().advise_chunk("GATK", 0.0);
    }
}
