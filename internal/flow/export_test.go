package flow

// GraphBuilt reports whether m's digraph or topological order has been
// materialized. Tests outside the package use it to check that a model
// stood up over a plan is never widened.
func GraphBuilt(m *Model) bool { return m.gc.g != nil || m.gc.topo != nil }
