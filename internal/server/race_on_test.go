//go:build race

package server_test

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of its puts on purpose, so pool reuse cannot be measured.
const raceEnabled = true
