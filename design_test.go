package ccsp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designCite matches a citation - the file name, one or more section
	// numbers after a § each, comma-separated, and an optional quoted title
	// - in comment text whose lines have been joined.
	designCite = regexp.MustCompile(`DESIGN\.md\s+((?:§[0-9.]+(?:,\s*)?)+)(?:"([^"]+)")?`)
	sectionNum = regexp.MustCompile(`§([0-9.]*[0-9])`)
	// commentBreak is a line break inside a run of // comments.
	commentBreak = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	// textBreak is a line break in Markdown prose, with the indentation
	// around it.
	textBreak     = regexp.MustCompile(`[ \t]*\n[ \t]*`)
	parenthetical = regexp.MustCompile(`\s*\([^)]*\)`)
	// prRef is a reference to a change by number: history, which
	// CHANGES.md holds.
	prRef = regexp.MustCompile(`\bPR\s+[0-9]`)
	// backticked is a `code span` of a Markdown table cell.
	backticked = regexp.MustCompile("`([^`]+)`")
)

// citedMarkdown are the Markdown files whose citations of DESIGN.md
// TestDesignCitationsResolve checks besides the Go comments.
var citedMarkdown = []string{"README.md", "EXPERIMENTS.md"}

// designTitles maps every "## §N" section of DESIGN.md to the titles a
// citation may quote in it: its "###" headings and its bold lead-ins
// ("**Who owns which buffer.**"), lower-cased, the lead-ins also without
// their closing period and parenthetical remarks.
func designTitles(doc string) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	var cur map[string]bool
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "## §"):
			num, _, _ := strings.Cut(strings.TrimPrefix(line, "## §"), " ")
			cur = make(map[string]bool)
			out[num] = cur
		case cur == nil:
		case strings.HasPrefix(line, "### "):
			cur[strings.ToLower(strings.TrimSpace(line[4:]))] = true
		case strings.HasPrefix(line, "**"):
			lead, _, ok := strings.Cut(line[2:], "**")
			if !ok {
				continue
			}
			lead = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(lead), "."))
			cur[lead] = true
			cur[strings.TrimSpace(parenthetical.ReplaceAllString(lead, ""))] = true
		}
	}
	return out
}

// checkCitations reports every citation in text whose section or quoted
// title DESIGN.md does not have, and returns how many citations it found.
func checkCitations(t *testing.T, sections map[string]map[string]bool, path, text string) int {
	t.Helper()
	found := designCite.FindAllStringSubmatch(text, -1)
	for _, m := range found {
		nums := sectionNum.FindAllStringSubmatch(m[1], -1)
		for _, num := range nums {
			if sections[num[1]] == nil {
				t.Errorf("%s: %q cites §%s, which DESIGN.md has no heading for", path, m[0], num[1])
			}
		}
		if title := strings.ToLower(strings.Join(strings.Fields(m[2]), " ")); title != "" {
			last := nums[len(nums)-1][1]
			if titles := sections[last]; titles != nil && !titles[title] {
				t.Errorf("%s: %q quotes a title that is neither a ### heading nor a bold lead-in of DESIGN.md §%s", path, m[0], last)
			}
		}
	}
	return len(found)
}

// TestDesignCitationsResolve: every "DESIGN.md §N" a Go comment in the
// repository or README.md / EXPERIMENTS.md cites names a "## §N" heading
// of DESIGN.md, and every quoted title after one names, case-insensitively,
// a "###" heading or a bold lead-in inside that section - so no cut or
// renumbering of DESIGN.md can orphan a comment or a paragraph that points
// into it.
func TestDesignCitationsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := designTitles(string(doc))
	goCites := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		goCites += checkCitations(t, sections, path, commentBreak.ReplaceAllString(string(src), " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if goCites < 50 {
		t.Fatalf("found %d DESIGN.md citations in Go files, want the repository's 50+: the pattern no longer matches them", goCites)
	}
	mdCites := 0
	for _, path := range citedMarkdown {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mdCites += checkCitations(t, sections, path, textBreak.ReplaceAllString(string(src), " "))
	}
	if mdCites < 25 {
		t.Fatalf("found %d DESIGN.md citations in %v, want the repository's 25+: the pattern no longer matches them", mdCites, citedMarkdown)
	}
}

// TestDesignHasNoHistory: DESIGN.md describes the system as it is. What a
// change did, and the numbers it measured, belong to CHANGES.md; a
// reference to a change by number is the first sign of a history growing
// back into the design.
func TestDesignHasNoHistory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, loc := range prRef.FindAllStringIndex(text, -1) {
		line := 1 + strings.Count(text[:loc[0]], "\n")
		t.Errorf("DESIGN.md:%d: %q refers to a change by number; history belongs in CHANGES.md", line, text[loc[0]:loc[1]])
	}
}

// TestPackageMapComplete: the first column of DESIGN.md §7's table names,
// in backticks, every directory outside benchmark/ that holds a non-test
// Go file (the root package as `ccsp`), and nothing else; the examples
// are one `examples/*` row that names each program.
func TestPackageMapComplete(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## §7 ")
	if !ok {
		t.Fatal("DESIGN.md has no §7")
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	mapped := make(map[string]bool)
	examplesRow := ""
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			mapped[m[1]] = true
			if m[1] == "examples/*" {
				examplesRow = line
			}
		}
	}
	shipped := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		switch {
		case dir == ".":
			dir = "ccsp"
		case strings.HasPrefix(dir, "examples/"):
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(strings.TrimPrefix(dir, "examples/")) + `\b`).MatchString(examplesRow) {
				t.Errorf("§7's examples/* row does not name %s", dir)
			}
			dir = "examples/*"
		}
		shipped[dir] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range shipped {
		if !mapped[dir] {
			t.Errorf("§7's package map has no row naming `%s`", dir)
		}
	}
	for name := range mapped {
		if !shipped[name] {
			t.Errorf("§7's package map names `%s`, which holds no non-test Go file", name)
		}
	}
}
