package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a small VM on a shared host, and how fast it runs
// the same instructions changes by a factor of up to two within the hour
// and by a third within minutes. In the slow stretches the program's CPU
// time per query rises exactly as its wall time does (correlation 0.998
// over 90 slices), there is no steal, and a register-only loop runs as fast
// as ever: it is the memory system, shared with the neighbours (one 260 MiB
// L3 for the whole host), that slows down. Ten runs of one commit and one
// seed then spread by 25-30 % (README.md, "Known noise sources"), which is
// beyond any bound the driver's contract allows, and no statistic computed
// inside a run helps, because a whole run sits in one weather.
//
// So the benchmark times a yardstick between the turns of the measuring
// loop: a fixed kernel that owes nothing to the program under test and
// does what slows down when the program does, moving memory. The kernel's
// nominal time over its time now is the slice's machine speed index, and
// the end-to-end time figures are reported at nominal speed (as measured x
// index for a duration, / index for a rate) with the figure as measured
// kept beside each. Counts, allocations, cycles, spans and per-layer
// figures are reported as measured. Over six same-seed runs
// per workload in a slow stretch, dividing by such a kernel's time cut the
// spread of the run medians to between a half and a quarter.
//
// The kernel lives outside the Go heap and allocates nothing, so the
// program's heap size and allocation rate do not reach its timing, and it
// leaves the garbage collector's pacing alone.

// calibNominalNS is the kernel's time per op on the reference box (2 vCPU
// Xeon @ 2.1 GHz) in its quiet stretches. On another box every nominal
// figure shifts by one constant factor, which no comparison between two
// commits sees.
const calibNominalNS = 0.93e6

// calibSample is how long one reading of the yardstick takes.
const calibSample = 10 * time.Millisecond

const calibTableBytes = 32 << 20 // eight times an L2, an eighth of the shared L3

// calibrator owns the kernel's table.
type calibrator struct {
	table []byte
	pos   int
	sink  uint64
}

func newCalibrator() *calibrator {
	mem, err := syscall.Mmap(-1, 0, calibTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		mem = make([]byte, calibTableBytes) // on the heap it still measures the machine
	}
	for i := range mem {
		mem[i] = byte(i * 7)
	}
	return &calibrator{table: mem}
}

// calibWindows is how many ops it takes the kernel's window to come round.
const calibWindows = 4

// op is one pass of the kernel over a window that moves through the table:
// a byte-wise read of 1 MiB, one load per cache line over 4 MiB, a 2 MiB
// copy and a 2 MiB clear, about a quarter of the time each.
func (c *calibrator) op() {
	const mib = 1 << 20
	c.pos = (c.pos + 3*mib) % (calibWindows * 3 * mib)
	lo, hi := c.table[c.pos:c.pos+4*mib], c.table[calibTableBytes/2+c.pos:]
	var s uint64
	for _, b := range lo[:mib] {
		s += uint64(b)
	}
	for i := 0; i < len(lo); i += 64 {
		s += uint64(lo[i])
	}
	copy(hi[:2*mib], lo[2*mib:])
	clear(hi[2*mib : 4*mib])
	c.sink += s
}

// reading is one timing of the kernel, per op: on the wall clock and in CPU
// time of the thread that ran it. While the hypervisor keeps the vCPU away
// the first grows and the second does not; while the memory system is slow
// both grow alike.
type reading struct{ wallNS, cpuNS float64 }

// threadCPU is the CPU time the calling thread has used, in ns, from the
// scheduler's own clock: getrusage counts it in ticks of 4 ms here, too
// coarse for a reading of 10 ms.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano())
}

// sample times the kernel for calibSample. One untimed round over every
// window comes first, so that a reading depends on how well the machine
// keeps and moves the kernel's own table just now, not on how much of it
// the program's last turn happened to evict.
func (c *calibrator) sample() reading {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < calibWindows; i++ {
		c.op()
	}
	start, cpu0 := time.Now(), threadCPU()
	ops := 0
	for {
		c.op()
		ops++
		if el := time.Since(start); el >= calibSample {
			r := reading{wallNS: float64(el) / float64(ops), cpuNS: (threadCPU() - cpu0) / float64(ops)}
			if r.cpuNS <= 0 { // no per-thread accounting here
				r.cpuNS = r.wallNS
			}
			return r
		}
	}
}

// speed is a machine speed index: 1 on the reference box in a quiet
// stretch, below 1 while the machine is slow. Durations on the wall clock
// are held against wall, CPU time against cpu.
type speed struct{ wall, cpu float64 }

// speedIndex turns kernel readings into the speed index of the stretch
// they were taken over.
func speedIndex(rs []reading) speed {
	var wall, cpu []float64
	for _, r := range rs {
		wall, cpu = append(wall, r.wallNS), append(cpu, r.cpuNS)
	}
	if len(rs) == 0 {
		return speed{1, 1}
	}
	return speed{wall: calibNominalNS / median(wall), cpu: calibNominalNS / median(cpu)}
}
