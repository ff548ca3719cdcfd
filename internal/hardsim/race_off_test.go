//go:build !race

package hardsim_test

const raceBuild = false
