package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuSeconds sums user+system CPU of the given processes (0 = self).
func cpuSeconds(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		if pid == 0 {
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return 0, fmt.Errorf("getrusage: %w", err)
			}
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th fields of the whole line.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		for _, x := range f[11:13] {
			v, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
			}
			total += v / clockTicks
		}
	}
	return total, nil
}

// peakRSSMB sums VmHWM (peak resident set) of the given processes.
func peakRSSMB(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		path := "/proc/self/status"
		if pid != 0 {
			path = fmt.Sprintf("/proc/%d/status", pid)
		}
		kb, err := statusField(path, "VmHWM:")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

func statusField(path, field string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		parts := strings.Fields(line[len(field):])
		if len(parts) == 0 {
			break
		}
		return strconv.ParseFloat(parts[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// fsType names the filesystem holding path, for the run record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown: " + err.Error()
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// hostTicks reads the machine-wide CPU time and its steal share (time a
// hypervisor gave this VM's CPUs to others) from /proc/stat, in ticks.
func hostTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
