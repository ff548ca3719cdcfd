//go:build race

package serve

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so the fleet's frame, record and receive buffers are allocated
// anew at random: allocation ceilings are race-specific.
const raceBuild = true
