package flashdev

import (
	"syscall"
	"time"
)

// wait blocks the caller for d in the kernel. nanosleep keeps its time
// whether the process is idle or busy and uses no processor, which
// neither time.Sleep (about 1.1 ms for anything shorter, whenever the Go
// scheduler is otherwise idle) nor a yield loop (it competes for the
// cores it waits on) does. The kernel's timer slack adds some tens of
// microseconds; they are part of the model.
func wait(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
