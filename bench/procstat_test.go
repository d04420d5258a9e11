package main

import (
	"math"
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with a space and a parenthesis, utime 1234 and
	// stime 66 ticks.
	line := "4242 (napel serve) x) S 1 4242 4242 0 -1 4194560 1907 0 0 0 1234 66 0 0 20 0 9 0 " +
		"123456 1187840000 6543 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("cpu = %v s, want %v s", got, want)
	}
	for _, bad := range []string{"", "12 (short) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 u 6 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"VmRSS", "VmHWM"} {
		if mb, err := procMB(os.Getpid(), field); err != nil || mb <= 0 {
			t.Fatalf("procMB(%s) = %v, %v", field, mb, err)
		}
	}
	if _, err := procMB(os.Getpid(), "NoSuchField"); err == nil {
		t.Error("procMB found a field /proc/self/status lacks")
	}
	stop := make(chan struct{})
	close(stop)
	rows, err := sampleRSS([]int{os.Getpid(), os.Getpid()}, stop)
	if err != nil || len(rows) != 2 || len(rows[0]) != 1 || len(rows[1]) != 1 {
		t.Fatalf("sampleRSS after stop = %v, %v; want one sample per pid", rows, err)
	}
}
