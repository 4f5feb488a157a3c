//! The SCAN semantic model (§II-C): domain ontology + cloud ontology +
//! SCAN linker, with lightweight RDFS reasoning.
//!
//! The paper defines, in BNF:
//!
//! ```text
//! Active Ontology ::= 'Ontology(' [ domain ] ')'
//!                   | 'Ontology(' [ cloud ]  ')'
//!                   | 'SCAN(' { linker } ')'
//! ```
//!
//! i.e. two ontologies (the genomics *domain* and the *cloud*) joined by
//! *linker* statements (`requiredBy`, `runsOn`, …). This module builds all
//! three into one [`TripleStore`] and provides the class/individual/
//! property helpers the rest of the platform uses, plus transitive
//! `rdfs:subClassOf` reasoning so queries for a superclass find instances
//! of its subclasses (the paper's `AlignedGenomicData ⊑ GenomicData` case).

use crate::store::TripleStore;
use crate::term::{NodeId, Term};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Well-known IRIs.
pub mod iri {
    /// `rdf:type`.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdfs:subClassOf`.
    pub const RDFS_SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `owl:Class`.
    pub const OWL_CLASS: &str = "http://www.w3.org/2002/07/owl#Class";
    /// `owl:NamedIndividual`.
    pub const OWL_NAMED_INDIVIDUAL: &str = "http://www.w3.org/2002/07/owl#NamedIndividual";
    /// The paper's ontology namespace.
    pub const SCAN_NS: &str = "http://www.semanticweb.org/wxing/ontologies/scan-ontology#";
}

/// Frequently used vocabulary, interned once.
#[derive(Debug, Clone, Copy)]
pub struct ScanVocabulary {
    /// `rdf:type`.
    pub rdf_type: NodeId,
    /// `rdfs:subClassOf`.
    pub subclass_of: NodeId,
    /// `owl:Class`.
    pub owl_class: NodeId,
    /// `owl:NamedIndividual`.
    pub owl_named_individual: NodeId,
    /// `scan:Application` — the class of bio-applications.
    pub application: NodeId,
    /// `scan:GenomeAnalysis` — analysis-workflow instances.
    pub genome_analysis: NodeId,
    /// `scan:inputFileSize` (GB).
    pub input_file_size: NodeId,
    /// `scan:steps` (pipeline stage index).
    pub steps: NodeId,
    /// `scan:eTime` (execution time).
    pub e_time: NodeId,
    /// `scan:CPU` (cores / threads used).
    pub cpu: NodeId,
    /// `scan:RAM` (GB).
    pub ram: NodeId,
    /// `scan:performance` (qualitative annotation).
    pub performance: NodeId,
    /// `scan:requiredBy` — linker: data class → workflow.
    pub required_by: NodeId,
    /// `scan:runsOn` — linker: application → cloud tier.
    pub runs_on: NodeId,
    /// `scan:computingResource` — linker: resource kind.
    pub computing_resource: NodeId,
    /// `scan:dataFormat` — domain: format of a data class.
    pub data_format: NodeId,
    /// `scan:costPerCoreTu` — cloud: tier pricing.
    pub cost_per_core_tu: NodeId,
    /// `scan:coreCapacity` — cloud: tier capacity.
    pub core_capacity: NodeId,
}

impl ScanVocabulary {
    /// Interns the vocabulary into `store`.
    pub fn intern(store: &mut TripleStore) -> Self {
        let mut scan = |local: &str| store.intern(Term::iri(format!("{}{}", iri::SCAN_NS, local)));
        let application = scan("Application");
        let genome_analysis = scan("GenomeAnalysis");
        let input_file_size = scan("inputFileSize");
        let steps = scan("steps");
        let e_time = scan("eTime");
        let cpu = scan("CPU");
        let ram = scan("RAM");
        let performance = scan("performance");
        let required_by = scan("requiredBy");
        let runs_on = scan("runsOn");
        let computing_resource = scan("computingResource");
        let data_format = scan("dataFormat");
        let cost_per_core_tu = scan("costPerCoreTu");
        let core_capacity = scan("coreCapacity");
        ScanVocabulary {
            rdf_type: store.intern(Term::iri(iri::RDF_TYPE)),
            subclass_of: store.intern(Term::iri(iri::RDFS_SUBCLASS)),
            owl_class: store.intern(Term::iri(iri::OWL_CLASS)),
            owl_named_individual: store.intern(Term::iri(iri::OWL_NAMED_INDIVIDUAL)),
            application,
            genome_analysis,
            input_file_size,
            steps,
            e_time,
            cpu,
            ram,
            performance,
            required_by,
            runs_on,
            computing_resource,
            data_format,
            cost_per_core_tu,
            core_capacity,
        }
    }
}

/// The domain ontology's data classes with their formats, following the
/// paper's AlignedGenomicData example; each is `rdfs:subClassOf
/// scan:GenomicData`.
const DATA_CLASSES: [(&str, &str); 5] = [
    ("SequencingData", "FASTQ"),
    ("AlignedGenomicData", "BAM"),
    ("VariantData", "VCF"),
    ("ProteomicData", "MGF"),
    ("CellImageData", "TIFF"),
];

/// The application classes (Fig. 1 / §III tool inventory); each is
/// `rdfs:subClassOf scan:Application`.
const APPLICATION_CLASSES: [&str; 7] =
    ["BWA", "GATK", "MuTect", "MaxQuant", "CellProfiler", "Cytoscape", "GPM"];

/// The assembled SCAN ontology: a triple store plus interned vocabulary.
#[derive(Debug, Clone)]
pub struct Ontology {
    store: TripleStore,
    vocab: ScanVocabulary,
    next_individual: HashMap<String, u32>,
}

impl Default for Ontology {
    fn default() -> Self {
        Self::new()
    }
}

impl Ontology {
    /// An empty ontology holding just the vocabulary.
    pub fn new() -> Self {
        let mut store = TripleStore::new();
        let vocab = ScanVocabulary::intern(&mut store);
        // scan-lint: allow(taint-nondet) -- lookup-only counter map, never iterated: unobservable.
        Ontology { store, vocab, next_individual: HashMap::new() }
    }

    /// Builds the paper's seed ontology: the domain classes (genomic data
    /// types and formats, application classes), the cloud classes (tiers,
    /// instance shapes) and the linker statements joining them.
    pub fn with_scan_schema() -> Self {
        let mut o = Self::new();
        let v = o.vocab;

        // --- domain ontology -------------------------------------------
        // Data classes, following the paper's AlignedGenomicData example.
        let genomic_data = o.class("GenomicData");
        for (name, format) in DATA_CLASSES {
            let c = o.class(name);
            o.store.insert(c, v.subclass_of, genomic_data);
            let f = o.store.intern(Term::str(format.to_string()));
            o.store.insert(c, v.data_format, f);
        }
        let app = v.application;
        o.store.insert(app, v.rdf_type, v.owl_class);
        for name in APPLICATION_CLASSES {
            let c = o.class(name);
            o.store.insert(c, v.subclass_of, app);
        }

        // --- cloud ontology --------------------------------------------
        let tier = o.class("CloudTier");
        for (name, cost, capacity) in [("PrivateTier", 5i64, 624i64), ("PublicTier", 50, -1)] {
            let t = o.individual_named(name, tier);
            o.store.set_property(t, v.cost_per_core_tu, Term::int(cost));
            o.store.set_property(t, v.core_capacity, Term::int(capacity));
        }
        let shape = o.class("InstanceShape");
        for cores in [1i64, 2, 4, 8, 16] {
            let s = o.individual_named(&format!("Shape{cores}"), shape);
            o.store.set_property(s, v.cpu, Term::int(cores));
        }

        // --- SCAN linker -----------------------------------------------
        // AlignedGenomicData requiredBy GATK workflows (the paper's
        // prototype example), SequencingData requiredBy BWA.
        let aligned = o.lookup_class("AlignedGenomicData").expect("just created");
        let gatk = o.lookup_class("GATK").expect("just created");
        o.store.insert(aligned, v.required_by, gatk);
        let seq = o.lookup_class("SequencingData").expect("just created");
        let bwa = o.lookup_class("BWA").expect("just created");
        o.store.insert(seq, v.required_by, bwa);
        // GenomeAnalysis workflows run on cloud tiers.
        o.store.insert(v.genome_analysis, v.rdf_type, v.owl_class);
        let private = o.lookup_individual("PrivateTier").expect("just created");
        o.store.insert(gatk, v.runs_on, private);

        o
    }

    /// The direct superclass that [`Ontology::with_scan_schema`] gives
    /// the class `local`, if any. Lets callers that hold no store reason
    /// about the fixed schema's `rdfs:subClassOf` edges.
    pub(crate) fn schema_superclass(local: &str) -> Option<&'static str> {
        if DATA_CLASSES.iter().any(|(c, _)| *c == local) {
            Some("GenomicData")
        } else if APPLICATION_CLASSES.contains(&local) {
            Some("Application")
        } else {
            None
        }
    }

    /// The interned vocabulary.
    pub fn vocab(&self) -> &ScanVocabulary {
        &self.vocab
    }

    /// The underlying triple store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Mutable access to the underlying triple store.
    pub fn store_mut(&mut self) -> &mut TripleStore {
        &mut self.store
    }

    /// Declares (or returns) a class named `local` in the SCAN namespace.
    pub fn class(&mut self, local: &str) -> NodeId {
        let c = self.store.intern(Term::iri(format!("{}{}", iri::SCAN_NS, local)));
        self.store.insert(c, self.vocab.rdf_type, self.vocab.owl_class);
        c
    }

    /// Looks up a class by local name without creating it.
    pub fn lookup_class(&self, local: &str) -> Option<NodeId> {
        self.store.nodes().lookup_iri(&format!("{}{}", iri::SCAN_NS, local))
    }

    /// Looks up an individual by local name without creating it.
    pub fn lookup_individual(&self, local: &str) -> Option<NodeId> {
        self.lookup_class(local)
    }

    /// Creates a named individual of `class` with an explicit local name.
    pub fn individual_named(&mut self, local: &str, class: NodeId) -> NodeId {
        let id = self.store.intern(Term::iri(format!("{}{}", iri::SCAN_NS, local)));
        self.store.insert(id, self.vocab.rdf_type, self.vocab.owl_named_individual);
        self.store.insert(id, self.vocab.rdf_type, class);
        id
    }

    /// Creates a fresh auto-numbered individual of `class` with the given
    /// name stem — `GATK1`, `GATK2`, … exactly as the paper's knowledge
    /// base grows when task logs are ingested. Numbers whose IRI already
    /// exists are skipped, so stems that are prefixes of one another
    /// (`GATK` and `GATK1` both yield a `GATK11`) never share a node.
    pub fn fresh_individual(&mut self, stem: &str, class: NodeId) -> NodeId {
        let mut n = self.next_individual.get(stem).copied().unwrap_or(0);
        let local = loop {
            n += 1;
            let local = format!("{stem}{n}");
            if self.lookup_individual(&local).is_none() {
                break local;
            }
        };
        self.next_individual.insert(stem.to_string(), n);
        self.individual_named(&local, class)
    }

    /// All individuals whose `rdf:type` is `class` or any transitive
    /// subclass of it (RDFS subclass reasoning via BFS).
    pub fn instances_of(&self, class: NodeId) -> Vec<NodeId> {
        let mut classes = BTreeSet::new();
        let mut queue = VecDeque::from([class]);
        while let Some(c) = queue.pop_front() {
            if classes.insert(c) {
                for sub in self.store.subjects(self.vocab.subclass_of, c) {
                    queue.push_back(sub);
                }
            }
        }
        let mut out = BTreeSet::new();
        for c in classes {
            for s in self.store.subjects(self.vocab.rdf_type, c) {
                // Exclude classes that happen to be typed (owl:Class rows).
                if !self.store.contains(s, self.vocab.rdf_type, self.vocab.owl_class) {
                    out.insert(s);
                }
            }
        }
        out.into_iter().collect()
    }

    /// True if `sub` is a (transitive, reflexive) subclass of `sup`.
    pub fn is_subclass(&self, sub: NodeId, sup: NodeId) -> bool {
        if sub == sup {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([sub]);
        while let Some(c) = queue.pop_front() {
            if !seen.insert(c) {
                continue;
            }
            for o in self.store.objects(c, self.vocab.subclass_of).collect::<Vec<_>>() {
                if o == sup {
                    return true;
                }
                queue.push_back(o);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_domain_cloud_and_linker() {
        let o = Ontology::with_scan_schema();
        // Domain: data classes exist with formats.
        let aligned = o.lookup_class("AlignedGenomicData").unwrap();
        let fmt = o.store().string(aligned, o.vocab().data_format);
        assert_eq!(fmt, Some("BAM"));
        // Cloud: tiers carry pricing.
        let private = o.lookup_individual("PrivateTier").unwrap();
        assert_eq!(o.store().number(private, o.vocab().cost_per_core_tu), Some(5.0));
        assert_eq!(o.store().number(private, o.vocab().core_capacity), Some(624.0));
        // Linker: AlignedGenomicData requiredBy GATK.
        let gatk = o.lookup_class("GATK").unwrap();
        assert!(o.store().contains(aligned, o.vocab().required_by, gatk));
    }

    #[test]
    fn fresh_individuals_number_like_the_paper() {
        let mut o = Ontology::with_scan_schema();
        let gatk = o.lookup_class("GATK").unwrap();
        let a = o.fresh_individual("GATK", gatk);
        let b = o.fresh_individual("GATK", gatk);
        let ia = o.store().resolve(a).as_iri().unwrap().to_string();
        let ib = o.store().resolve(b).as_iri().unwrap().to_string();
        assert!(ia.ends_with("GATK1"), "{ia}");
        assert!(ib.ends_with("GATK2"), "{ib}");
    }

    #[test]
    fn schema_superclass_matches_the_built_schema() {
        let o = Ontology::with_scan_schema();
        let names = DATA_CLASSES.iter().map(|(c, _)| *c).chain(APPLICATION_CLASSES);
        for name in names.chain(["GenomicData", "Application", "CloudTier"]) {
            let class = o.lookup_class(name).unwrap();
            let direct: Vec<NodeId> = o.store().objects(class, o.vocab().subclass_of).collect();
            let expected: Vec<NodeId> = Ontology::schema_superclass(name)
                .map(|s| o.lookup_class(s).unwrap())
                .into_iter()
                .collect();
            assert_eq!(direct, expected, "{name}");
        }
    }

    #[test]
    fn instances_of_respects_subclasses() {
        let mut o = Ontology::with_scan_schema();
        let gatk = o.lookup_class("GATK").unwrap();
        let app = o.vocab().application;
        let i = o.fresh_individual("GATK", gatk);
        // The individual is typed GATK, and GATK ⊑ Application, so a query
        // for Application instances must find it.
        let apps = o.instances_of(app);
        assert!(apps.contains(&i));
        // Direct query also works.
        assert!(o.instances_of(gatk).contains(&i));
        // But it is not an instance of an unrelated class.
        let bwa = o.lookup_class("BWA").unwrap();
        assert!(!o.instances_of(bwa).contains(&i));
    }

    #[test]
    fn classes_are_not_reported_as_instances() {
        let o = Ontology::with_scan_schema();
        let app = o.vocab().application;
        let gatk = o.lookup_class("GATK").unwrap();
        assert!(
            !o.instances_of(app).contains(&gatk),
            "the GATK *class* must not appear as an Application instance"
        );
    }

    #[test]
    fn subclass_reasoning_is_transitive_and_reflexive() {
        let mut o = Ontology::new();
        let a = o.class("A");
        let b = o.class("B");
        let c = o.class("C");
        let v = *o.vocab();
        o.store_mut().insert(a, v.subclass_of, b);
        o.store_mut().insert(b, v.subclass_of, c);
        assert!(o.is_subclass(a, c));
        assert!(o.is_subclass(a, a));
        assert!(!o.is_subclass(c, a));
    }

    #[test]
    fn subclass_cycle_terminates() {
        let mut o = Ontology::new();
        let a = o.class("A");
        let b = o.class("B");
        let v = *o.vocab();
        o.store_mut().insert(a, v.subclass_of, b);
        o.store_mut().insert(b, v.subclass_of, a);
        assert!(o.is_subclass(a, b));
        assert!(o.is_subclass(b, a));
        assert!(!o.is_subclass(a, v.application));
    }

    #[test]
    fn instance_shapes_match_table_iii() {
        let o = Ontology::with_scan_schema();
        let shape = o.lookup_class("InstanceShape").unwrap();
        let shapes = o.instances_of(shape);
        let mut cores: Vec<f64> =
            shapes.iter().filter_map(|&s| o.store().number(s, o.vocab().cpu)).collect();
        cores.sort_by(f64::total_cmp);
        assert_eq!(cores, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
    }
}
