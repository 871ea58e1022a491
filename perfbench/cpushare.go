package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareBuckets are the packages CPU samples are bucketed into; every
// sample lands in exactly one, "other" catching the rest.
var shareBuckets = []string{
	"nvm", "codegen", "monitor", "artemis", "device", "energy", "task", "ir",
	"integrity", "correctness", "chaos", "fleet", "fleetserver", "gc",
	"net_http", "encoding_json", "other",
}

const modulePrefix = "github.com/tinysystems/artemis-go/internal/"

// bucketOf maps a fully qualified function name, as pprof prints it, to
// its share bucket.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may contain slashes
	}
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "gc"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, b := range shareBuckets {
			if name == b {
				return b
			}
		}
	}
	return "other"
}

// cpuShares runs `go tool pprof -top` over the given CPU profiles and
// returns each bucket's share of self samples, in percent.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return parseTop(out.Bytes())
}

// parseTop buckets the flat% column of `pprof -top` output.
func parseTop(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, b := range shareBuckets {
		shares[b] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := false
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		shares[bucketOf(strings.Join(f[5:], " "))] += pct
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	return shares, nil
}
