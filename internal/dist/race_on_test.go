//go:build race

package dist

// raceBuild: under the race detector sync.Pool drops what it is given, so
// every frame buffer is allocated anew and byte ceilings do not apply.
const raceBuild = true
