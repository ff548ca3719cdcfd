//go:build race

package dist

// raceBuild: under the race detector sync.Pool drops a share of what it is
// given, so frame, record and receive buffers are allocated anew at
// random: allocation ceilings are race-specific, byte ceilings and the
// zero-allocation worker bound do not apply.
const raceBuild = true
