// The two system calls of the flush path that the standard library
// does not offer: a sub-millisecond sleep and a data-only sync.
package wal

import (
	"os"
	"syscall"
	"time"
)

// gatherSleep sleeps on the kernel's high-resolution timer. time.Sleep
// cannot: once every committer is parked in Pending.Wait the process is
// idle, an idle Go runtime waits for its next timer inside epoll_wait,
// and epoll_wait takes its timeout in whole milliseconds — a 200 µs
// sleep then lasts over a millisecond. Only the gather watchdog sleeps
// here, never the flusher. The kernel adds the thread's timer slack
// (50 µs by default) to d; a signal may end the sleep early, and the
// caller re-checks its deadline.
func gatherSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// datasync is fdatasync(2): it waits for f's data, and for its metadata
// only where reading the data back needs it. A write into blocks the
// file already owns changes no such metadata, so the file system has no
// journal transaction to commit.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
