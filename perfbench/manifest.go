package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// manifest identifies what produced a result. Wall-clock figures compare
// only between results whose host fields match.
type manifest struct {
	GitRev     string   `json:"git_rev"` // "none" outside a git checkout
	GitDirty   bool     `json:"git_dirty"`
	SourceSHA  string   `json:"source_sha256"` // of every .go, go.mod and go.sum file
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Flags      []string `json:"flags"`
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
}

func collectManifest(workload string, seed uint64) manifest {
	m := manifest{
		GitRev:     "none",
		SourceSHA:  sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Flags:      os.Args[1:],
		Workload:   workload,
		Seed:       seed,
	}
	// Only a .git in the checkout itself counts: git must not find an
	// enclosing repository above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.GitRev = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources under root, skipping build output and
// version-control directories, so results from a checkout without git
// history still name the code they measured.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
