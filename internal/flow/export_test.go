package flow

// GraphBuilt reports whether m's digraph has been widened. Tests outside
// the package use it to check that a model stood up over a plan is never
// widened.
func GraphBuilt(m *Model) bool { return m.g.Load() != nil }
