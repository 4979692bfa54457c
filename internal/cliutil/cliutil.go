// Package cliutil parses the values partmb's flags and the service's wire
// specs share: byte sizes with binary suffixes and virtual-time durations.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"partmb/internal/sim"
)

// ParseSize parses byte counts such as "512B", "64KiB", "4MiB", "1GiB",
// short forms "64K"/"4M"/"1G", or plain numbers.
func ParseSize(s string) (int64, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	upper := strings.ToUpper(trimmed)
	mult := int64(1)
	switch {
	case strings.HasSuffix(upper, "GIB"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "GIB")
	case strings.HasSuffix(upper, "MIB"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "MIB")
	case strings.HasSuffix(upper, "KIB"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "KIB")
	case strings.HasSuffix(upper, "G"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "G")
	case strings.HasSuffix(upper, "M"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "M")
	case strings.HasSuffix(upper, "K"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "K")
	case strings.HasSuffix(upper, "B"):
		upper = strings.TrimSuffix(upper, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("cliutil: negative size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("cliutil: size %q overflows", s)
	}
	return n * mult, nil
}

// ParseDuration parses durations such as "10ms", "100us", "250ns", "1.5s"
// into virtual time. Negative durations are rejected: no CLI flag takes one.
func ParseDuration(s string) (sim.Duration, error) {
	d, err := sim.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad duration %q", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("cliutil: negative duration %q", s)
	}
	return d, nil
}
