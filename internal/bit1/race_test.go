//go:build race

package bit1

// raceBuild: the race detector instruments every frame, and a parked
// rank's stack is then a property of the instrumentation.
const raceBuild = true
