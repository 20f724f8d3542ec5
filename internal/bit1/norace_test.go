//go:build !race

package bit1

const raceBuild = false
