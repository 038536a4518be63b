package main

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark shares its host with other machines' work, and the speed
// that work leaves it swings by a third and more between runs minutes
// apart. hostProbe tracks that speed: before every set-up and every
// measured pass it times a fixed piece of work that depends on nothing in
// the repository: chainSteps steps of four independent integer chains,
// then lookupSteps steps of four chains of lookups in a table that fits
// the L2 cache but not L1, the two halves taking about as long. The run's
// host factor is the median probe time over probeRef; finish scales the
// metrics that measure compute time by it, to the speed of a host on
// which the probe takes probeRef.
//
// The probe mixes both because the benchmark's own code is bound by
// neither alone: a single dependent multiply chain moved half as much as
// the workloads did from run to run, and a sweep over a large buffer also
// read the benchmark's own state (heap, page cache, the store's
// writeback), so scaling by either left the spread between runs wider.
const (
	chainSteps  = 1 << 20
	lookupSteps = 1 << 18
	probeTable  = 128 << 10 // uint32s: 512 KiB
	// probeRef is the probe's typical time on the 2-CPU runner the
	// benchmark was defined on.
	probeRef = 4000 * time.Microsecond
)

type hostProbe struct {
	table   []uint32
	samples []float64 // ns
}

func newHostProbe() *hostProbe {
	rng := rand.New(rand.NewSource(1))
	t := make([]uint32, probeTable)
	for i := range t {
		t[i] = rng.Uint32()
	}
	return &hostProbe{table: t}
}

// probeSink keeps the probe's results alive.
var probeSink uint64

// sample times the probe once.
func (h *hostProbe) sample() {
	t0 := time.Now()
	a, b, c, d := probeSink, probeSink^1, probeSink^2, probeSink^3
	for i := 0; i < chainSteps; i++ {
		a = a*6364136223846793005 + 1
		b ^= b << 13
		b ^= b >> 7
		c = c*2862933555777941757 + 3037000493
		d += a ^ c>>17
	}
	const mask = probeTable - 1
	t := h.table
	x, y, z, w := uint32(a), uint32(b), uint32(c), uint32(d)
	for i := 0; i < lookupSteps; i++ {
		x = x*31 + t[x&mask]
		y = y*37 ^ t[y&mask]
		z = z*41 + t[z&mask]
		w = w*43 ^ t[w&mask]
	}
	h.samples = append(h.samples, float64(time.Since(t0)))
	probeSink = uint64(x + y + z + w)
}

// factor is how much slower than the reference host the host was over
// the run: its median probe time over probeRef.
func (h *hostProbe) factor() float64 { return hostFactor(h.samples) }

// hostFactor is the host factor over some of the probe's samples.
func hostFactor(samples []float64) float64 { return median(samples) / float64(probeRef) }

// cpuTicks is the first line of /proc/stat: the ticks all CPUs spent
// busy, and the steal ticks, in which a CPU had work but the hypervisor
// ran another machine on it.
type cpuTicks struct{ busy, steal float64 }

// readCPUTicks reads the counters; without /proc/stat both read 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]float64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stealMeter sums busy and steal ticks over the intervals it is started
// and stopped around. On a shared host the steal share swings from none
// to a quarter of the CPU time within minutes, and a stolen tick stalls
// whatever the CPU was running: a pass that wanted the CPUs for t ran
// for about t/(1-share).
type stealMeter struct {
	busy, steal float64
	t0          cpuTicks
}

func (m *stealMeter) start() { m.t0 = readCPUTicks() }

func (m *stealMeter) stop() {
	t := readCPUTicks()
	m.busy += t.busy - m.t0.busy
	m.steal += t.steal - m.t0.steal
}

// share is the stolen share of the time the CPUs wanted to run.
func (m *stealMeter) share() float64 {
	if m.busy+m.steal <= 0 {
		return 0
	}
	return m.steal / (m.busy + m.steal)
}
