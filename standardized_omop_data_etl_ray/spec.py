"""Table specifications for the CDC engine.

The reference configures its pipeline through convention + registration
lists (priority dict at combine_subtables.py:7-18, concept-id columns at
combine_subtables.py:21-26, script list at
pipeline_process_subtables_to_final.py:94-112).  Our engine replaces that
with one typed, declarative ``TableSpec``: arrow schema + key columns +
LSN column + merge policy + rename rules (schema evolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

# The primary CDC input shape (BASELINE.json input_hint):
# change events over a Parquet table of source-code repositories.
CDC_EVENT_SCHEMA = pa.schema(
    [
        ("op", pa.string()),        # "I" | "U" | "D"
        ("lsn", pa.int64()),        # globally unique, strictly increasing in true order
        ("repo", pa.string()),      # key part
        ("path", pa.string()),      # key part
        ("commit", pa.string()),    # 40-char hex; last-known for D
        ("lang", pa.string()),      # may change on U; null on D
        ("content", pa.string()),   # null on D
    ]
)

# Standardized state rows as stored in the lake (delta files keep op+lsn so
# merge-on-read can resolve LWW; tombstones are rows with op == "D").
CDC_STATE_SCHEMA = pa.schema(
    [
        ("op", pa.string()),
        ("lsn", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
        ("content_sha", pa.string()),  # sha256 hex of content (per-row invariant)
        ("key_hash", pa.uint64()),     # stable sha256-derived hash of (repo, path)
        ("part", pa.int32()),          # key_hash % num_partitions
    ]
)


@dataclass
class TableSpec:
    """Declarative spec for one lake table.

    Analog of the reference's per-table convention bundle:
    output column list (e.g. mortality--death.py:29-35), canonical schema pad
    (add_missing_columns.py:64-261), merge priority (combine_subtables.py:7-18).
    """

    name: str
    key_cols: tuple[str, ...] = ("repo", "path")
    lsn_col: str = "lsn"
    op_col: str = "op"
    # columns whose sha256 forms the per-row content invariant
    content_col: str = "content"
    # declared target schema; evolves via `evolve()` (add / widen only)
    schema: pa.Schema = field(default_factory=lambda: CDC_EVENT_SCHEMA)
    # schema-evolution rename map applied at standardize time: src -> dst
    rename: dict[str, str] = field(default_factory=dict)
    num_partitions: int = 32
    # opt-in partial-column updates (op='P'): non-null payload columns
    # overwrite, null = untouched; see stages/merge.patch_reduce_table.
    # Off by default — the plain-LWW hot path is untouched when False.
    patch_ops: bool = False

    @property
    def payload_cols(self) -> list[str]:
        """The schema's columns that are not key, op or lsn, in schema
        order."""
        reserved = {*self.key_cols, self.op_col, self.lsn_col}
        return [f.name for f in self.schema if f.name not in reserved]

    def apply_rename(self, incoming: pa.Schema) -> pa.Schema:
        """Apply the schema-evolution rename map (OMOP-style field
        remapping) to an incoming schema — callers must do this BEFORE
        ``evolve``, else a renamed source column would be added as a
        spurious new field instead of landing on its target."""
        if not self.rename:
            return incoming
        return pa.schema(
            [pa.field(self.rename.get(f.name, f.name), f.type)
             for f in incoming]
        )

    def evolve(self, incoming: pa.Schema) -> pa.Schema:
        """Unify the declared schema with an incoming batch schema.

        Column adds and integer widenings are accepted
        (pa.unify_schemas with permissive promotion); narrowing raises.
        Reference analog: union-by-name concat with NaN fill
        (combine_subtables.py:124) + pad-to-canonical
        (add_missing_columns.py:26-53) — but checked, not silently coerced.
        """
        try:
            unified = pa.unify_schemas(
                [self.schema, incoming], promote_options="permissive"
            )
        except (pa.ArrowInvalid, pa.ArrowTypeError) as e:  # incompatible change
            raise SchemaEvolutionError(str(e)) from e
        # reject narrowing: every existing field's type must be promotable
        for f in self.schema:
            nf = unified.field(f.name)
            if nf.type != f.type and not _is_widening(f.type, nf.type):
                raise SchemaEvolutionError(
                    f"narrowing/incompatible change on {f.name}: {f.type} -> {nf.type}"
                )
        return unified


class SchemaEvolutionError(ValueError):
    pass


_WIDEN_ORDER = {
    pa.int8(): 0, pa.int16(): 1, pa.int32(): 2, pa.int64(): 3,
    pa.float32(): 10, pa.float64(): 11,
}


def _is_widening(old: pa.DataType, new: pa.DataType) -> bool:
    if old in _WIDEN_ORDER and new in _WIDEN_ORDER:
        return _WIDEN_ORDER[new] >= _WIDEN_ORDER[old]
    if pa.types.is_integer(old) and pa.types.is_floating(new):
        return True
    return False
