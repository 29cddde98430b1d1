package scenario

import (
	"fmt"
	"strings"

	"dejavuzz/internal/uarch"
)

// Info is one catalog row: the serialisable description of a family, shared
// by `dejavuzz -list-scenarios`, the server's GET /scenarios endpoint and
// the README catalog check.
type Info struct {
	Name         string       `json:"name"`
	Description  string       `json:"description"`
	TriggerClass string       `json:"trigger_class"`
	WindowClass  string       `json:"window_class"`
	Legacy       string       `json:"legacy_trigger"`
	Targets      []string     `json:"targets"`
	Caps         Capabilities `json:"caps,omitzero"`
}

// targetsFor lists the built-in targets that can observe the family's
// trigger: the cycle-accurate cores always can; the architectural isasim
// pair only sees exception-class triggers (mispredictions have no
// architectural signature, so isasim honestly reports them untriggered).
func targetsFor(f *Family) []string {
	if f.Trigger.Squash() == uarch.SquashException {
		return []string{"boom", "xiangshan", "isasim"}
	}
	return []string{"boom", "xiangshan"}
}

// Catalog returns one Info per family, sorted by name.
func Catalog() []Info {
	out := make([]Info, 0, len(sorted))
	for _, f := range sorted {
		out = append(out, Info{
			Name:         f.Name,
			Description:  f.Description,
			TriggerClass: triggerClasses[f.Trigger].title,
			WindowClass:  f.WindowClass,
			Legacy:       f.Trigger.String(),
			Targets:      targetsFor(f),
			Caps:         f.Caps,
		})
	}
	return out
}

// CatalogTable renders the catalog as the canonical GitHub-markdown table.
// `dejavuzz -list-scenarios` prints exactly this, and CI diffs it against
// the README's scenario-catalog section, so the two can never drift.
func CatalogTable() string {
	var b strings.Builder
	b.WriteString("| family | trigger class | window class | targets |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, in := range Catalog() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n",
			in.Name, in.TriggerClass, in.WindowClass, strings.Join(in.Targets, ", "))
	}
	return b.String()
}
