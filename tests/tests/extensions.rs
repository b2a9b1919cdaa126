//! Integration tests for the extension modules: streaming validation and
//! schema diff — exercised against real pipeline output on generated
//! datasets.

use pg_hive_core::diff::diff_schemas;
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::{
    CompiledSchema, Discoverer, PipelineConfig, StreamValidationReport, Validator, ViolationKind,
};
use pg_hive_datasets::{inject_noise, DatasetId, NoiseSpec};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{split_batches, PropertyGraph};

/// Stream `g`'s `.pgt` text through a [`Validator`] over `schema`, as
/// `pg-hive validate` does.
fn validate(g: &PropertyGraph, schema: &SchemaGraph) -> StreamValidationReport {
    let compiled = CompiledSchema::compile(schema);
    let mut v = Validator::new(&compiled);
    let text = save_text(g);
    let mut source = PgtSource::new(text.as_bytes());
    assert!(v.validate_source(&mut source, 10_000, |_, _| {}).unwrap());
    v.finish()
}

#[test]
fn discovered_schema_validates_its_training_data_strictly() {
    for id in [DatasetId::Pole, DatasetId::Ldbc] {
        let d = id.generate(0.05, 41);
        let r = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&d.graph);
        let report = validate(&d.graph, &r.schema);
        assert!(
            report.is_valid(),
            "{}: {:?}, first: {:?}",
            id.name(),
            report.by_category(),
            report.examples.first()
        );
    }
}

#[test]
fn unseen_data_from_same_distribution_validates_loosely() {
    let train = DatasetId::Pole.generate(0.05, 42);
    let test = DatasetId::Pole.generate(0.05, 43); // different seed
    let schema = Discoverer::new(PipelineConfig::elsh_adaptive())
        .discover(&train.graph)
        .schema;
    let report = validate(&test.graph, &schema);
    assert_eq!(
        report.count(ViolationKind::TypeMismatch),
        0,
        "fresh same-shape data must fit every declared datatype: {:?}",
        report.examples.first()
    );
}

#[test]
fn noisy_data_fails_strict_validation_against_clean_schema() {
    let clean = DatasetId::Pole.generate(0.05, 44);
    let schema = Discoverer::new(PipelineConfig::elsh_adaptive())
        .discover(&clean.graph)
        .schema;
    let mut noisy = DatasetId::Pole.generate(0.05, 44);
    inject_noise(&mut noisy.graph, &NoiseSpec::grid(40, 100, 44));
    let report = validate(&noisy.graph, &schema);
    assert!(
        report.count(ViolationKind::MissingKey) > 0,
        "40% property removal must violate mandatory constraints"
    );
    assert_eq!(
        report.total(),
        report.count(ViolationKind::MissingKey),
        "removing properties raises nothing but missing keys: {:?}",
        report.by_category()
    );
}

#[test]
fn incremental_prefix_diffs_are_monotone_on_real_data() {
    let d = DatasetId::Cord19.generate(0.05, 47);
    let discoverer = Discoverer::new(PipelineConfig::elsh_adaptive());
    let batches = split_batches(&d.graph, 5, 47);
    let mut prev = None;
    for upto in 1..=5 {
        let r = discoverer.discover_batches(&d.graph, &batches[..upto]);
        if let Some(p) = &prev {
            let diff = diff_schemas(p, &r.schema);
            assert!(diff.is_monotone(), "step {upto}: {diff}");
        }
        prev = Some(r.schema);
    }
}

#[test]
fn diff_detects_drift_between_dataset_versions() {
    // Same dataset family, one version with an extra noise axis: the diff
    // must flag constraint changes rather than pretend equality.
    let v1 = DatasetId::Pole.generate(0.05, 49);
    let mut v2 = DatasetId::Pole.generate(0.05, 49);
    inject_noise(&mut v2.graph, &NoiseSpec::grid(30, 100, 49));
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let s1 = d.discover(&v1.graph).schema;
    let s2 = d.discover(&v2.graph).schema;
    let diff = diff_schemas(&s1, &s2);
    assert!(
        !diff.is_empty(),
        "property removal must surface in the diff"
    );
}
