package integration

import (
	"strconv"
	"strings"
	"testing"
)

// The layers of PAPER.md §1's drawing of the RMI, lowest first: an
// object substrate, the object bus every call crosses, the protocol the
// objects speak, the service objects, and the programs that assemble
// them into a metasystem.
const (
	substrate = iota
	objectBus
	protocol
	services
	assembly
)

var layerNames = [...]string{"substrate", "object bus", "protocol", "services", "assembly"}

// layers is each internal package's layer, by its path under internal/.
var layers = map[string]int{
	"vclock": substrate, "wire": substrate, "loid": substrate, "telemetry": substrate,
	"fanout": substrate, "attr": substrate, "query": substrate,

	"orb": objectBus, "resilient": objectBus,

	"proto": protocol, "sched": protocol, "reservation": protocol, "opr": protocol,

	"host": services, "vault": services, "classobj": services, "rge": services,
	"batchq": services, "collection": services, "collection/daemon": services,
	"nws": services, "enactor": services, "economy": services,
	"scheduler": services, "monitor": services, "netobj": services,

	"core": assembly, "sim": assembly, "rebalance": assembly, "chaos": assembly,
	"experiments": assembly,
}

// serviceEdges are the imports allowed from one services-layer package
// to another, each with its reason: a mechanism that uses another
// mechanism names it here.
var serviceEdges = map[[2]string]string{
	{"collection/daemon", "monitor"}: "the daemon tracks each pushing host's liveness with the Monitor's tracker",
	{"collection/daemon", "nws"}:     "the daemon injects NWS forecasts into the records it holds",
	{"nws", "collection"}:            "InjectForecast writes forecasts into a Collection's records",
	{"scheduler", "classobj"}:        "a parameter study runs its tasks as instances of its class",
	{"scheduler", "netobj"}:          "the communication-aware scheduler reads Network Objects' link records",
	{"enactor", "economy"}:           "the Enactor charges a tenant's reservations to its ledger",
	{"host", "rge"}:                  "a Host raises its events through the RGE's trigger sets",
	{"host", "batchq"}:               "a batch Host runs its objects as jobs of a batch queue",
}

// layerFault is why an import from package from to package to, both
// named by their paths under internal/, breaks the layering, or "".
func layerFault(from, to string) string {
	lf, okf := layers[from]
	lt, okt := layers[to]
	switch {
	case !okf:
		return "internal/" + from + " has no layer"
	case !okt:
		return "internal/" + to + " has no layer"
	case lt > lf:
		return "the " + layerNames[lf] + " layer sits below the " + layerNames[lt] + " layer"
	case lf == services && lt == services && from != to && serviceEdges[[2]string{from, to}] == "":
		return "an edge between two services that serviceEdges does not list"
	}
	return ""
}

// TestImportsFollowLayers holds the import graph to the paper's layers:
// no internal package imports one from a higher layer, and an import
// between two service objects is one serviceEdges lists. A planted
// upward import (the retry mechanism naming a provider) is refused.
func TestImportsFollowLayers(t *testing.T) {
	if layerFault("resilient", "host") == "" {
		t.Fatal("an object-bus package importing a service passes the layer rule")
	}
	used := map[[2]string]bool{}
	for _, p := range checkedTree(t) {
		from, ok := strings.CutPrefix(p.rel, "internal/")
		if !ok || len(p.files) == 0 {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				to, ok := strings.CutPrefix(path, "legion/internal/")
				if !ok {
					continue
				}
				used[[2]string{from, to}] = true
				if fault := layerFault(from, to); fault != "" {
					t.Errorf("%s: imports internal/%s: %s", p.fset.Position(imp.Pos()), to, fault)
				}
			}
		}
	}
	for edge := range serviceEdges {
		if !used[edge] {
			t.Errorf("serviceEdges lists internal/%s → internal/%s, which nothing imports; drop it", edge[0], edge[1])
		}
	}
}
