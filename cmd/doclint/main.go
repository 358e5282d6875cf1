// Command doclint enforces the repository's documentation floor. It
// checks two things and exits 1 listing every offence:
//
//   - Every Go package under internal/ and cmd/, plus the root facade
//     package, carries a package-level doc comment (a comment block
//     immediately preceding the package clause in at least one non-test
//     file; a blank line between them detaches it in godoc).
//   - Every back-ticked path in README.md and ARCHITECTURE.md resolves,
//     so a deletion that leaves a stale paragraph fails CI. A token whose
//     first segment is cmd, internal, bench, examples or testdata must
//     exist relative to the root or to some directory of the tree; a
//     bare *.go, *.json or *.md name must match a file somewhere in the
//     tree. A trailing ":line" is ignored, tokens holding "{" or "*" are
//     patterns, and fenced code blocks are not checked.
//
// Reviewers own the prose; doclint only checks that it is attached and
// points at something. CI runs it next to go vet.
//
// Usage:
//
//	go run ./cmd/doclint [root]
//
// root defaults to the current directory.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	os.Exit(run(root))
}

// run lints the tree under root and returns the exit code: 0 clean,
// 1 with offences, 2 when the tree cannot be read.
func run(root string) int {
	// One walk collects every path of the tree, slash-separated and
	// relative to root, and every audited directory holding non-test Go
	// files. Hidden directories (.git, build caches) are skipped.
	var tree []string
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		tree = append(tree, rel)
		top, _, _ := strings.Cut(rel, "/")
		goFile := !d.IsDir() && strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go")
		if goFile && (top == "internal" || top == "cmd" || path.Dir(rel) == ".") {
			pkgDirs[filepath.Dir(p)] = true
		}
		return nil
	})
	var problems []string
	if err == nil {
		problems, err = missingPackageDocs(pkgDirs)
	}
	if err == nil {
		var stale []string
		stale, err = stalePaths(root, tree)
		problems = append(problems, stale...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		return 2
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "doclint:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// missingPackageDocs lists the directories whose package has no doc
// comment.
func missingPackageDocs(dirs map[string]bool) ([]string, error) {
	var missing []string
	for dir := range dirs {
		ok, pkg, err := hasPackageComment(dir)
		if err != nil {
			return nil, err
		}
		if !ok {
			missing = append(missing, fmt.Sprintf("no package doc comment: %s (package %s)", dir, pkg))
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// hasPackageComment reports whether any non-test Go file in dir carries
// a doc comment attached to its package clause.
func hasPackageComment(dir string) (bool, string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return false, "", err
	}
	name := ""
	for pkgName, pkg := range pkgs {
		name = pkgName
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return true, pkgName, nil
			}
		}
	}
	return false, name, nil
}

// docFiles are the documents whose back-ticked paths must resolve.
var docFiles = []string{"README.md", "ARCHITECTURE.md"}

// pathRoots are the first segments that make a back-ticked token a path.
var pathRoots = map[string]bool{"cmd": true, "internal": true, "bench": true, "examples": true, "testdata": true}

// stalePaths lists the back-ticked paths of docFiles that name nothing
// in tree, the slash-separated paths under root.
func stalePaths(root string, tree []string) ([]string, error) {
	resolves := func(tok string) bool {
		for _, p := range tree {
			if p == tok || strings.HasSuffix(p, "/"+tok) {
				return true
			}
		}
		return false
	}
	var stale []string
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		var prose []string
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if !fenced {
				prose = append(prose, line)
			}
		}
		// Code spans may wrap, so split the joined prose: every odd piece
		// is the inside of a span.
		spans := strings.Split(strings.Join(prose, "\n"), "`")
		for i := 1; i < len(spans); i += 2 {
			for _, tok := range strings.Fields(spans[i]) {
				tok, _, _ = strings.Cut(tok, ":")
				tok = strings.TrimSuffix(tok, "/")
				if strings.ContainsAny(tok, "{*") {
					continue
				}
				first, _, nested := strings.Cut(tok, "/")
				ext := path.Ext(tok)
				isPath := nested && pathRoots[first] || !nested && (ext == ".go" || ext == ".json" || ext == ".md")
				if isPath && !resolves(tok) {
					stale = append(stale, fmt.Sprintf("%s names a missing path: `%s`", doc, tok))
				}
			}
		}
	}
	return stale, nil
}
