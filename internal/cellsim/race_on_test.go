//go:build race

package cellsim

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so Local Stores are rebuilt at random: allocation ceilings are
// race-specific.
const raceBuild = true
