package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// envRecord describes the machine a run measured.
type envRecord struct {
	Seed       int64  `json:"seed"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	GoVersion  string `json:"go_version"`
	Note       string `json:"note,omitempty"`
}

func environment(seed int64) envRecord {
	e := envRecord{
		Seed:       seed,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		GoVersion:  runtime.Version(),
	}
	if e.GOMAXPROCS < 2 {
		e.Note = "fewer than 2 procs: this run cannot show parallel-scan or scheduler-merge effects"
	}
	return e
}

// cpuModel reads the processor name the kernel reports ("unknown" when it
// does not).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified or data cache at the given
// level from sysfs ("unknown" when it is not exposed).
func cacheSize(level int) string {
	for i := 0; ; i++ {
		idx := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(idx + "level")
		if err != nil {
			return "unknown"
		}
		typ, _ := os.ReadFile(idx + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(idx + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
}

// procSample is the process's resource use at one instant.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: m.TotalAlloc,
		numGC:      m.NumGC,
	}
}

// resetPeakRSS starts a fresh peak-RSS window: it returns set-up garbage to
// the OS, then asks the kernel to reset the process's VmHWM to its current
// RSS. It reports whether the kernel supports the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM: the peak RSS since the process started, or since
// the last resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rssSampler reads the process's resident set size at a fixed interval
// until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mib, err := rssMiB(); err == nil {
				s.samples = append(s.samples, mib)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// rssMiB reads the current resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// memRoofGBps measures a STREAM-style read+XOR over a buffer of the given
// size: one goroutine per proc folds its share of the buffer into a
// register-held word, so the pass is bound by memory bandwidth, not by the
// XOR. The best of several passes is the machine's roof for a scan kernel.
func memRoofGBps(size int, passes int) float64 {
	words := make([]uint64, size/8)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	procs := runtime.GOMAXPROCS(0)
	per := (len(words) + procs - 1) / procs
	sink := make([]uint64, procs)
	var best float64
	for p := 0; p < passes; p++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < procs; w++ {
			lo, hi := w*per, min((w+1)*per, len(words))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				var a0, a1, a2, a3 uint64
				seg := words[lo:hi]
				i := 0
				for ; i+4 <= len(seg); i += 4 {
					a0 ^= seg[i]
					a1 ^= seg[i+1]
					a2 ^= seg[i+2]
					a3 ^= seg[i+3]
				}
				for ; i < len(seg); i++ {
					a0 ^= seg[i]
				}
				sink[w] = a0 ^ a1 ^ a2 ^ a3
			}(w, lo, hi)
		}
		wg.Wait()
		if gbps := float64(len(words)*8) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}
