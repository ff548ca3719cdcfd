//go:build race

package rts

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so a run's scratch and TUBs are regrown at random: allocation
// ceilings are race-specific.
const raceBuild = true
