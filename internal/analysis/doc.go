// Package analysis implements the paper's measurements over collected
// snapshots: the community type mix (Fig. 1–2), the action vs
// informational split (Fig. 3), action-community usage by ASes and
// routes (Fig. 4a), usage concentration (Fig. 4b), the route-share
// correlation (Fig. 4c), per-action-type AS counts (Table 2) and
// occurrence counts (§5.3), top-k communities and targets (Fig. 5),
// targeting of non-RS members (§5.5, Fig. 6) and the responsible
// "culprit" ASes (Fig. 7), plus the snapshot-stability tables of
// Appendix A (Tables 3–4).
//
// Every function takes a *collector.Snapshot plus the hosting IXP's
// *dictionary.Scheme and an address-family selector, mirroring how the
// paper slices each analysis per IXP and per family.
//
// One execution path backs each entry point: the classified snapshot
// Index. Every scheme-dependent wrapper answers from IndexFor — the
// index pinned on the snapshot (AttachIndex, as the column-direct and
// delta-chain loaders do) or else a shared cached one, built once per
// (snapshot, scheme) pair. Every index, whatever its source, comes out
// of one classify-and-fold core (core.go): a pre-pass gives each
// distinct community value a dense id and classifies it once, a flat
// per-route fold counts set and neighbor references, and a flush
// derives the aggregates all ~20 analyses slice. A materialized
// snapshot (NewIndex), a binary file's columns (IndexFromReader) and a
// delta's op stream (IndexSeriesFromReader + Index.Advance) are the
// three row sources. The full experiment battery therefore classifies
// each distinct value exactly once per build. The scheme-independent
// counts (CountSnapshot, HygieneFilterImpact,
// CommunityCountPercentiles) reuse a pinned or cached index when one
// exists and otherwise walk the routes, which is cheaper than building
// an index just for them.
//
// The per-analysis direct-classify walks survive only as the test
// oracle (oracle_test.go): TestWrappersMatchOracle pins every wrapper
// to them, and every build source is checked accessor by accessor
// against them over the materialized snapshot — TestIndexMatchesDirect
// (routes), TestIndexFromReaderMatchesNewIndex and FuzzIndexFromColumns
// (columns), TestAdvanceMatchesFullRebuild and FuzzAdvance (deltas).
package analysis
