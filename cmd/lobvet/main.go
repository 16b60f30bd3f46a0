// Command lobvet runs the postlob invariant analyzers over the module. It
// enforces the unwritten contracts the large-object machinery depends on:
//
//	framerelease  every pinned buffer.Frame is Released on all paths
//	txncomplete   every txn.Begin reaches Commit or Abort on all paths
//	storageerr    storage write/flush/sync/commit errors are never dropped
//	lockguard     '// guarded by mu' fields are accessed under the mutex
//	nopanic       no undocumented panic in internal/* library code
//	obsregister   obs metrics are registered once at package init, never in loops
//	walorder      pool flushes stay in buffer/txn/core; wal.Append* LSNs are never discarded
//	lockorder     whole-program lock-acquisition graph obeys the declared hierarchy
//	blockinlock   no blocking operation is reachable while a buffer latch is held
//
// lockorder and blockinlock are interprocedural: they build a call graph
// with per-function lock summaries (internal/analysis/callgraph) over every
// package in the run. Diagnostics are printed in deterministic
// file:line:column order across all packages and analyzers.
//
// Usage:
//
//	go run ./cmd/lobvet ./...            # standalone over package patterns
//	go vet -vettool=$(which lobvet) ./...  # as a vet tool
//
// Flags:
//
//	-tests=false   skip _test.go files
//	-disable=a,b   turn off individual analyzers
//	-list          print the analyzers and exit
//
// A finding can be suppressed for one line with a '//lobvet:ignore' comment;
// the comment should justify why the invariant holds anyway.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"postlob/internal/analysis"
	"postlob/internal/analysis/blockinlock"
	"postlob/internal/analysis/framerelease"
	"postlob/internal/analysis/lockguard"
	"postlob/internal/analysis/lockorder"
	"postlob/internal/analysis/nopanic"
	"postlob/internal/analysis/obsregister"
	"postlob/internal/analysis/storageerr"
	"postlob/internal/analysis/txncomplete"
	"postlob/internal/analysis/walorder"
)

var analyzers = []*analysis.Analyzer{
	framerelease.Analyzer,
	txncomplete.Analyzer,
	storageerr.Analyzer,
	lockguard.Analyzer,
	nopanic.Analyzer,
	obsregister.Analyzer,
	walorder.Analyzer,
}

// programAnalyzers run once over every loaded package (standalone mode) or
// over the single package go vet hands us (vettool mode, where the analysis
// degrades to intra-package interprocedural reasoning).
var programAnalyzers = []*analysis.ProgramAnalyzer{
	lockorder.Analyzer,
	blockinlock.Analyzer,
}

func main() {
	var (
		withTests  = flag.Bool("tests", true, "also analyze _test.go files")
		disable    = flag.String("disable", "", "comma-separated analyzer names to skip")
		list       = flag.Bool("list", false, "list analyzers and exit")
		version    = flag.String("V", "", "version flag used by the go vet driver")
		flagsProbe = flag.Bool("flags", false, "describe flags in JSON for the go vet driver")
	)
	flag.Parse()

	if *version != "" {
		// The go command probes vet tools with -V=full and uses the output
		// as a build-cache key. A "devel" version must carry a buildID=
		// field; hashing our own executable makes the cache key track the
		// tool's contents, the same scheme x/tools' unitchecker uses.
		name := filepath.Base(os.Args[0])
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lobvet:", err)
			os.Exit(1)
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lobvet:", err)
			os.Exit(1)
		}
		fmt.Printf("%s version devel buildID=%02x\n", name, sha256.Sum256(data))
		return
	}
	if *flagsProbe {
		// The go command asks which of its flags the tool understands;
		// lobvet forwards none of them.
		fmt.Println("[]")
		return
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		for _, a := range programAnalyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	enabled, enabledProg := enabledAnalyzers(*disable)
	args := flag.Args()

	// go vet -vettool invokes the tool once per package with a JSON config
	// file as the sole argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetConfig(args[0], enabled, enabledProg))
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, enabled, enabledProg, *withTests))
}

func enabledAnalyzers(disable string) ([]*analysis.Analyzer, []*analysis.ProgramAnalyzer) {
	skip := make(map[string]bool)
	for _, name := range strings.Split(disable, ",") {
		if name != "" {
			skip[name] = true
		}
	}
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	var outProg []*analysis.ProgramAnalyzer
	for _, a := range programAnalyzers {
		if !skip[a.Name] {
			outProg = append(outProg, a)
		}
	}
	return out, outProg
}

// diagLine is one rendered diagnostic, sortable by file:line:column, then
// analyzer, then message, so output is stable across runs and map orders.
type diagLine struct {
	file      string
	line, col int
	analyzer  string
	msg       string
}

func sortDiagLines(lines []diagLine) {
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.msg < b.msg
	})
}

func printDiagLines(lines []diagLine) {
	sortDiagLines(lines)
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", l.file, l.line, l.col, l.analyzer, l.msg)
	}
}

func runStandalone(patterns []string, enabled []*analysis.Analyzer, enabledProg []*analysis.ProgramAnalyzer, withTests bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobvet:", err)
		return 1
	}
	loader, err := analysis.NewModuleLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobvet:", err)
		return 1
	}
	paths, err := expandPatterns(loader, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobvet:", err)
		return 1
	}

	exit := 0
	var lines []diagLine
	var loadedPaths []string
	for _, path := range paths {
		pkg, extra, err := loader.LoadPackage(path, withTests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lobvet: %s: %v\n", path, err)
			exit = 1
			continue
		}
		loadedPaths = append(loadedPaths, path)
		for _, p := range []*analysis.Package{pkg, extra} {
			if p == nil {
				continue
			}
			for _, terr := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "lobvet: %s: type error: %v\n", p.Path, terr)
				exit = 1
			}
			lines = append(lines, collectDiags(p, enabled, &exit)...)
		}
	}
	if len(enabledProg) > 0 && len(loadedPaths) > 0 {
		// The program pass works on the canonical import-graph instance of
		// each package, so cross-package calls resolve; the instances
		// LoadPackage returned above may be test-augmented rebuilds with
		// distinct type identities.
		var progPkgs []*analysis.Package
		for _, path := range loadedPaths {
			pkg, err := loader.ImportPackage(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lobvet: %s: %v\n", path, err)
				exit = 1
				continue
			}
			progPkgs = append(progPkgs, pkg)
		}
		byName, err := analysis.RunProgramAnalyzers(progPkgs, enabledProg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lobvet:", err)
			exit = 1
		}
		fset := loader.Fset
		for _, a := range enabledProg {
			for _, d := range byName[a.Name] {
				pos := fset.Position(d.Pos)
				lines = append(lines, diagLine{pos.Filename, pos.Line, pos.Column, a.Name, d.Message})
			}
		}
	}
	printDiagLines(lines)
	if len(lines) > 0 {
		exit = 1
	}
	return exit
}

func collectDiags(pkg *analysis.Package, enabled []*analysis.Analyzer, exit *int) []diagLine {
	var lines []diagLine
	for _, a := range enabled {
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lobvet: %s: %v\n", pkg.Path, err)
			*exit = 1
			continue
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			lines = append(lines, diagLine{pos.Filename, pos.Line, pos.Column, a.Name, d.Message})
		}
	}
	return lines
}

// expandPatterns turns package patterns into module import paths. Supported
// forms: "./...", "dir/...", "./x/y", and bare import paths within the
// module.
func expandPatterns(loader *analysis.Loader, patterns []string) ([]string, error) {
	root := loader.ModuleDir()
	mod := loader.ModulePath()
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = root
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			// Maybe it is already an import path like postlob/internal/txn.
			if strings.HasPrefix(pat, mod) {
				add(pat)
				continue
			}
			return nil, fmt.Errorf("pattern %q is outside module %s", pat, mod)
		}
		toImport := func(r string) string {
			if r == "." {
				return mod
			}
			return mod + "/" + filepath.ToSlash(r)
		}
		if !recursive {
			add(toImport(rel))
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			// A nested module (benchmark/) is not part of this one, exactly
			// as the go tool reads "./...": its packages are not importable
			// under this module's path, and it is vetted from its own root.
			if p != abs {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			ents, err := os.ReadDir(p)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
					r, err := filepath.Rel(root, p)
					if err != nil {
						return err
					}
					add(toImport(r))
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
