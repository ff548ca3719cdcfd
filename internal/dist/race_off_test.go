//go:build !race

package dist

const raceBuild = false
