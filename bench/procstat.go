package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 for every architecture the repository builds on.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from one /proc/<pid>/stat
// line. The command name (field 2) is parenthesized and may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command name: %q", line)
	}
	// After the command name: state is field 3, utime 14, stime 15.
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command name, want >= 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return float64(ticks) / clockTicks, nil
}

// procCPU returns the user+system CPU seconds pid has used so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// procMB returns one kB-valued field of /proc/<pid>/status in MB:
// "VmRSS" is the resident set size now, "VmHWM" its peak so far.
func procMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected %s line %q", field, line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// rssEvery is how often sampleRSS reads the resident set sizes.
const rssEvery = 100 * time.Millisecond

// sampleRSS reads the VmRSS of every pid every rssEvery until stop is
// closed, and returns one row of samples per pid.
func sampleRSS(pids []int, stop <-chan struct{}) ([][]float64, error) {
	rows := make([][]float64, len(pids))
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		for i, pid := range pids {
			mb, err := procMB(pid, "VmRSS")
			if err != nil {
				return nil, err
			}
			rows[i] = append(rows[i], mb)
		}
		select {
		case <-stop:
			return rows, nil
		case <-tick.C:
		}
	}
}
