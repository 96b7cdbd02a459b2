//! The few engine calls every workload and probe repeats.

use dc_core::Database;
use dc_relation::Relation;
use dc_server::WriteBatch;

use crate::gen::{pair_tuple, Batch, Inputs};

/// DBPL text of the closure query over the inputs' edge relation.
pub fn closure_query(inputs: &Inputs) -> String {
    format!("QUERY {}{{ahead()}};", inputs.edge_rel)
}

/// DBPL text of the one-step join over the inputs' edge relation.
pub fn join_query(inputs: &Inputs) -> String {
    let rel = inputs.edge_rel;
    format!("{{<x.front, y.back> OF EACH x IN {rel}, EACH y IN {rel}: x.back = y.front}}")
}

/// A fresh database with the inputs' definitions and no tuples.
pub fn define(inputs: &Inputs) -> Result<Database, String> {
    let mut db = Database::new();
    dc_lang::run_script(&mut db, &inputs.script).map_err(|e| format!("define: {e}"))?;
    Ok(db)
}

/// Bulk-load the inputs' tuples.
pub fn load(db: &mut Database, inputs: &Inputs) -> Result<(), String> {
    for (name, tuples) in &inputs.relations {
        db.insert_all(name, tuples.iter().cloned())
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    Ok(())
}

pub fn define_and_load(inputs: &Inputs) -> Result<Database, String> {
    let mut db = define(inputs)?;
    load(&mut db, inputs)?;
    Ok(db)
}

/// Run a one-`QUERY` script and return its answer.
pub fn query(db: &mut Database, text: &str) -> Result<Relation, String> {
    dc_lang::run_script(db, text)
        .map_err(|e| format!("query: {e}"))?
        .pop()
        .map(|r| r.relation)
        .ok_or_else(|| "query: the script held no QUERY".to_string())
}

/// A commit's worth of edge inserts and deletes on `rel`.
pub fn write_batch(rel: &str, batch: &Batch) -> WriteBatch {
    let mut out = WriteBatch::new();
    for e in &batch.delete {
        out.push_delete(rel, pair_tuple(e));
    }
    for e in &batch.insert {
        out.push_insert(rel, pair_tuple(e));
    }
    out
}
