package cosma_test

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to SIGKILL the worker when the test
// binary that started it dies, so a crashed or killed test run (where
// no t.Cleanup runs) leaves no worker behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
