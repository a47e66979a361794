//! Declarative schema mappings from source rows to unified rows.
//!
//! Each wrapper declares, per target column, which source column feeds
//! it and which transform applies. This is the "standards" half of the
//! paper's approach: classic wrapper/mediator field mapping rather than
//! hand-written per-source glue.

use crate::{IntegrateError, Result};
use drugtree_store::schema::Schema;
use drugtree_store::value::Value;

/// Cell-level transform applied during mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Copy unchanged.
    Identity,
    /// Uppercase a text cell.
    Uppercase,
    /// Lowercase a text cell.
    Lowercase,
    /// Multiply a numeric cell by a constant (unit conversion).
    Scale(f64),
    /// Replace NULL with a default.
    NullTo(Value),
}

impl Transform {
    /// Apply to one cell.
    pub fn apply(&self, value: Value) -> Result<Value> {
        Ok(match self {
            Transform::Identity => value,
            Transform::Uppercase => match value {
                Value::Text(s) => Value::from(s.to_uppercase()),
                Value::Null => Value::Null,
                other => {
                    return Err(IntegrateError::Mapping(format!(
                        "Uppercase needs text, got {other:?}"
                    )))
                }
            },
            Transform::Lowercase => match value {
                Value::Text(s) => Value::from(s.to_lowercase()),
                Value::Null => Value::Null,
                other => {
                    return Err(IntegrateError::Mapping(format!(
                        "Lowercase needs text, got {other:?}"
                    )))
                }
            },
            Transform::Scale(k) => match value {
                Value::Int(i) => Value::Float(i as f64 * k),
                Value::Float(f) => Value::Float(f * k),
                Value::Null => Value::Null,
                other => {
                    return Err(IntegrateError::Mapping(format!(
                        "Scale needs a number, got {other:?}"
                    )))
                }
            },
            Transform::NullTo(default) => {
                if value.is_null() {
                    default.clone()
                } else {
                    value
                }
            }
        })
    }
}

/// One target column's provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMapping {
    /// Column in the source schema.
    pub source_column: String,
    /// Column in the target schema.
    pub target_column: String,
    /// Transform to apply.
    pub transform: Transform,
}

/// A full source→target row mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaMapping {
    fields: Vec<FieldMapping>,
}

impl SchemaMapping {
    /// Build from field mappings.
    pub fn new(fields: Vec<FieldMapping>) -> SchemaMapping {
        SchemaMapping { fields }
    }

    /// The identity mapping for columns sharing names in both schemas.
    pub fn identity(columns: &[&str]) -> SchemaMapping {
        SchemaMapping {
            fields: columns
                .iter()
                .map(|c| FieldMapping {
                    source_column: c.to_string(),
                    target_column: c.to_string(),
                    transform: Transform::Identity,
                })
                .collect(),
        }
    }

    /// Field mappings, in target order.
    pub fn fields(&self) -> &[FieldMapping] {
        &self.fields
    }

    /// Map one source row into a target row laid out by
    /// `target_schema`. Unmapped target columns become NULL (they must
    /// be nullable or the caller's insert will reject the row — the
    /// store remains the single validation authority).
    pub fn map_row(
        &self,
        source_schema: &Schema,
        source_columns: &[String],
        row: &[Value],
        target_schema: &Schema,
    ) -> Result<Vec<Value>> {
        // Rows may arrive projected; resolve positions against the
        // response's column list, falling back to the schema order.
        let position = |name: &str| -> Result<usize> {
            if !source_columns.is_empty() {
                source_columns
                    .iter()
                    .position(|c| c == name)
                    .ok_or_else(|| {
                        IntegrateError::Mapping(format!(
                            "source column {name:?} absent from response"
                        ))
                    })
            } else {
                source_schema
                    .column_index(name)
                    .map_err(|e| IntegrateError::Mapping(e.to_string()))
            }
        };

        let mut out = vec![Value::Null; target_schema.arity()];
        for field in &self.fields {
            let src_idx = position(&field.source_column)?;
            let dst_idx = target_schema
                .column_index(&field.target_column)
                .map_err(|e| IntegrateError::Mapping(e.to_string()))?;
            let cell = row.get(src_idx).cloned().ok_or_else(|| {
                IntegrateError::Mapping(format!(
                    "row too short for source column {:?}",
                    field.source_column
                ))
            })?;
            out[dst_idx] = field.transform.apply(cell)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::schema::Column;
    use drugtree_store::value::ValueType;

    fn source_schema() -> Schema {
        Schema::new(vec![
            Column::required("Acc", ValueType::Text),
            Column::required("ki_um", ValueType::Float),
            Column::nullable("note", ValueType::Text),
        ])
    }

    fn target_schema() -> Schema {
        Schema::new(vec![
            Column::required("accession", ValueType::Text),
            Column::required("value_nm", ValueType::Float),
            Column::nullable("note", ValueType::Text),
        ])
    }

    fn mapping() -> SchemaMapping {
        SchemaMapping::new(vec![
            FieldMapping {
                source_column: "Acc".into(),
                target_column: "accession".into(),
                transform: Transform::Uppercase,
            },
            FieldMapping {
                source_column: "ki_um".into(),
                target_column: "value_nm".into(),
                transform: Transform::Scale(1000.0), // µM -> nM
            },
            FieldMapping {
                source_column: "note".into(),
                target_column: "note".into(),
                transform: Transform::NullTo(Value::from("unannotated")),
            },
        ])
    }

    #[test]
    fn maps_with_transforms() {
        let row = vec![Value::from("p00533"), Value::Float(0.5), Value::Null];
        let out = mapping()
            .map_row(&source_schema(), &[], &row, &target_schema())
            .unwrap();
        assert_eq!(
            out,
            vec![
                Value::from("P00533"),
                Value::Float(500.0),
                Value::from("unannotated")
            ]
        );
    }

    #[test]
    fn respects_projected_column_order() {
        // The response shipped only (ki_um, Acc), reordered.
        let columns = vec!["ki_um".to_string(), "Acc".to_string()];
        let row = vec![Value::Float(2.0), Value::from("x1")];
        let m = SchemaMapping::new(vec![
            FieldMapping {
                source_column: "Acc".into(),
                target_column: "accession".into(),
                transform: Transform::Identity,
            },
            FieldMapping {
                source_column: "ki_um".into(),
                target_column: "value_nm".into(),
                transform: Transform::Scale(1000.0),
            },
        ]);
        let out = m
            .map_row(&source_schema(), &columns, &row, &target_schema())
            .unwrap();
        assert_eq!(out[0], Value::from("x1"));
        assert_eq!(out[1], Value::Float(2000.0));
        assert_eq!(
            out[2],
            Value::Null,
            "unmapped target column defaults to NULL"
        );
    }

    #[test]
    fn transform_errors() {
        assert!(Transform::Uppercase.apply(Value::Int(3)).is_err());
        assert!(Transform::Scale(2.0).apply(Value::from("x")).is_err());
        // NULL passes through numeric/text transforms.
        assert_eq!(
            Transform::Scale(2.0).apply(Value::Null).unwrap(),
            Value::Null
        );
        assert_eq!(
            Transform::Uppercase.apply(Value::Null).unwrap(),
            Value::Null
        );
        // Int scales into float.
        assert_eq!(
            Transform::Scale(2.5).apply(Value::Int(4)).unwrap(),
            Value::Float(10.0)
        );
        assert_eq!(
            Transform::Lowercase.apply(Value::from("AbC")).unwrap(),
            Value::from("abc")
        );
    }

    #[test]
    fn unknown_columns_rejected() {
        let m = SchemaMapping::identity(&["nope"]);
        let err = m
            .map_row(
                &source_schema(),
                &[],
                &vec![Value::Null; 3],
                &target_schema(),
            )
            .unwrap_err();
        assert!(matches!(err, IntegrateError::Mapping(_)));
    }

    #[test]
    fn identity_mapping() {
        let m = SchemaMapping::identity(&["note"]);
        let row = vec![Value::from("a"), Value::Float(1.0), Value::from("n")];
        let out = m
            .map_row(&source_schema(), &[], &row, &target_schema())
            .unwrap();
        assert_eq!(out, vec![Value::Null, Value::Null, Value::from("n")]);
    }
}
