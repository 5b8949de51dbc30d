package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Idle spinners. On a small VM every request wakes a halted vCPU, and the
// host's delay in running it again swings with the host's load: it moved
// the median latency by 2× and the tail by 10× between runs minutes apart.
// Threads at SCHED_IDLE priority, one per CPU, keep the vCPUs running
// without taking time from any other thread (the kernel runs them only
// when nothing else is runnable and preempts them on every wake-up), so
// latencies measure the program, not the host scheduler. They run in a
// child process because a spinning goroutine would hold a scheduler P.

// spinFlag re-executes this binary as the spinner process.
const spinFlag = "-spin"

// startSpinners starts the spinner process with n threads and returns a
// function that stops it and waits for it to exit.
func startSpinners(n int) (func(), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spinFlag, strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spinners: %w", err)
	}
	return func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}, nil
}

// spin is the spinner process: n threads at SCHED_IDLE, spinning until
// the process is killed.
func spin(n int) {
	runtime.GOMAXPROCS(n + 1)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			const schedIdle = 5
			param := [1]int32{0} // struct sched_param: priority 0
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintln(os.Stderr, "e2ebench spinner: sched_setscheduler:", errno)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}
