package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryHasNoBuildConstraints holds the library to one code path on
// every platform: no non-test file under internal/ carries a build
// constraint. A platform-specific fast path needs a measured gain large
// enough to pay for the second path it brings.
func TestLibraryHasNoBuildConstraints(t *testing.T) {
	root := repoRoot(t)
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "package ") {
				break
			}
			if strings.HasPrefix(line, "//go:build") || strings.HasPrefix(line, "// +build") {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s: build constraint %q", filepath.ToSlash(rel), line)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}
