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
	commentBreak  = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	parenthetical = regexp.MustCompile(`\s*\([^)]*\)`)
)

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

// TestDesignCitationsResolve: every "DESIGN.md §N" a Go file in the
// repository cites names a "## §N" heading of DESIGN.md, and every quoted
// title after one names, case-insensitively, a "###" heading or a bold
// lead-in inside that section - so no cut or renumbering of DESIGN.md can
// orphan a comment that points into it.
func TestDesignCitationsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := designTitles(string(doc))
	cites := 0
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
		text := commentBreak.ReplaceAllString(string(src), " ")
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			cites++
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites < 50 {
		t.Fatalf("found %d DESIGN.md citations in Go files, want the repository's 50+: the pattern no longer matches them", cites)
	}
}
