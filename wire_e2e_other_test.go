//go:build !linux

package cosma_test

import "os/exec"

// dieWithParent is a no-op off Linux, which has no parent-death
// signal; spawnWorker's t.Cleanup still kills the workers of a test
// that ends normally.
func dieWithParent(*exec.Cmd) {}
