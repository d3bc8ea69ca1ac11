// Package proto defines the wire protocol of the Legion resource
// management infrastructure: the method names and message types exchanged
// between Schedulers, Enactors, Collections, Class objects, Hosts, and
// Vaults.
//
// Servers (package host, vault, collection, classobj, enactor) implement
// these methods; clients invoke them through an orb.Runtime. Keeping the
// protocol in one leaf package mirrors the paper's emphasis on published
// component interfaces (Table 1, Figures 4 and 6) that others can
// reimplement: a drop-in replacement Host only needs to speak this
// protocol.
package proto

import (
	"errors"
	"strings"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/reservation"
	"legion/internal/sched"
)

// ErrOverload is the typed refusal servers return when they shed a
// request under load (admission control at the Enactor, occupancy
// watermarks at a Host). It is a *refusal*, not a transport failure:
// package resilient classifies it permanent, so shedding makes callers
// back off through their protocol loops without opening circuit
// breakers — a loaded server is alive, and tripping breakers on sheds
// would amplify the overload into an availability collapse. The message
// prefix survives orb.RemoteError's identity erasure, so the classifier
// recognizes sheds across the wire too.
var ErrOverload = errors.New("legion: overloaded, request shed")

// IsOverload reports whether err is, or wraps on either side of the
// wire, the ErrOverload shed. Cross-runtime calls flatten sentinel
// identity into a RemoteError message, so the check falls back to the
// sentinel's text.
func IsOverload(err error) bool {
	return err != nil && (errors.Is(err, ErrOverload) ||
		strings.Contains(err.Error(), ErrOverload.Error()))
}

// Host object methods (Table 1), plus the trigger-registration calls the
// Monitor uses (§3.5) and the attribute report every Legion object
// provides.
const (
	// Reservation management.
	MethodMakeReservation   = "make_reservation"
	MethodCheckReservation  = "check_reservation"
	MethodCancelReservation = "cancel_reservation"
	// Process (object) management.
	MethodStartObject      = "startObject"
	MethodKillObject       = "killObject"
	MethodDeactivateObject = "deactivateObject"
	// Information reporting.
	MethodGetCompatibleVaults = "get_compatible_vaults"
	MethodVaultOK             = "vault_OK"
	MethodGetAttributes       = "get_attributes"
	// RGE trigger support.
	MethodDefineTrigger   = "define_trigger"
	MethodRegisterOutcall = "register_outcall"
)

// Vault object methods.
const (
	MethodStoreOPR    = "store_opr"
	MethodRetrieveOPR = "retrieve_opr"
	MethodDeleteOPR   = "delete_opr"
)

// Collection methods (Figure 4). UpdateCollectionBatch is this
// reproduction's extension for the Data Collection Daemon's coalesced
// push path: one call deposits many members' updates at once.
const (
	MethodJoinCollection        = "JoinCollection"
	MethodLeaveCollection       = "LeaveCollection"
	MethodQueryCollection       = "QueryCollection"
	MethodUpdateCollectionEntry = "UpdateCollectionEntry"
	MethodUpdateCollectionBatch = "UpdateCollectionBatch"
)

// Class object methods (§2.1, §3.4).
const (
	MethodCreateInstance     = "create_instance"
	MethodGetImplementations = "get_implementations"
	MethodListInstances      = "list_instances"
	MethodDestroyInstance    = "destroy_instance"
)

// Enactor methods (Figure 6).
const (
	MethodMakeReservations   = "make_reservations"
	MethodEnactSchedule      = "enact_schedule"
	MethodCancelReservations = "cancel_reservations"
)

// Economy account methods served by a ledger-enabled Enactor
// (DESIGN.md §15): deposit funds a tenant's account, status reports its
// ledger snapshot.
const (
	MethodAccountDeposit = "account_deposit"
	MethodAccountStatus  = "account_status"
)

// Monitor callback method: Hosts perform this outcall when a registered
// trigger fires.
const MethodNotify = "notify"

// Directory service: a bootstrap object at the well-known LOID
// (DirectoryLOID) through which remote runtimes discover a node's
// service objects. The real Legion system bootstraps through LegionClass
// at a well-known address; this plays the same role for the
// multi-process tools (cmd/legiond, cmd/legion-run).
const MethodLookupServices = "lookup_services"

// DirectoryLOID returns the well-known LOID of a domain's directory.
func DirectoryLOID(domain string) loid.LOID {
	return loid.LOID{Domain: domain, Class: "Directory", Instance: 1}
}

// ServicesReply describes a node's service objects.
type ServicesReply struct {
	Collection loid.LOID
	Enactor    loid.LOID
	Monitor    loid.LOID
	// Classes maps class name to class-object LOID.
	Classes map[string]loid.LOID
	// Hosts and Vaults list the node's resource objects.
	Hosts  []loid.LOID
	Vaults []loid.LOID
}

// --- Host messages ---

// MakeReservationArgs asks a Host for a reservation (§3.1).
type MakeReservationArgs struct {
	// Requester identifies the asking object, so the Host's local
	// placement policy can apply site-autonomy rules such as "domains
	// from which it refuses to accept object instantiation requests".
	Requester loid.LOID
	// Vault is the storage partner; the Host verifies reachability and
	// compatibility before granting.
	Vault loid.LOID
	// Type selects the Table 2 reservation class.
	Type reservation.Type
	// Start of the wanted interval; zero means now.
	Start time.Time
	// Duration of wanted service; Timeout is the confirmation deadline
	// for instantaneous reservations (zero = host default, negative is
	// rejected as malformed — see reservation.Table.Make).
	Duration time.Duration
	Timeout  time.Duration
	// Priority is the request's priority class (higher = more
	// important; 0 is the default class). Load-shedding Host policies
	// refuse low-priority reservations above an occupancy watermark.
	Priority int
	// Tenant names the paying account (DESIGN.md §15); empty means
	// unattributed. Hosts may use it in local placement policy, and it
	// lets site accounting attribute grants to tenants.
	Tenant string
}

// MakeReservationReply carries the granted token.
type MakeReservationReply struct {
	Token reservation.Token
	// Cost is the host's charge for this grant (host price × reservation
	// duration, in price units): the amount the Enactor debits from the
	// requesting tenant's ledger account. Zero for unpriced hosts.
	Cost float64
}

// TokenArgs carries a token for check/cancel calls.
type TokenArgs struct {
	Token reservation.Token
}

// StartObjectArgs redeems a reservation to instantiate objects. The class
// object mints the instance LOIDs; "the StartObject function can create
// one or more objects ... important to support efficient object creation
// for multiprocessor systems".
type StartObjectArgs struct {
	Token reservation.Token
	// Class is the class of the instances.
	Class loid.LOID
	// Instances are the pre-minted LOIDs to activate.
	Instances []loid.LOID
	// State optionally reactivates each instance from a stored OPR
	// (migration/restart); nil starts fresh instances. When non-nil it
	// applies to a single instance.
	State *opr.OPR
}

// StartObjectReply reports the activated instances.
type StartObjectReply struct {
	Started []loid.LOID
}

// ObjectArgs names one object for kill/deactivate calls.
type ObjectArgs struct {
	Object loid.LOID
}

// DeactivateReply returns the saved passive state's vault location.
type DeactivateReply struct {
	// OPR is the object's passive state; it has also been stored in the
	// Vault named by the object's reservation.
	OPR *opr.OPR
	// Vault is where the OPR was stored.
	Vault loid.LOID
}

// CompatibleVaultsReply lists the vaults reachable from the Host.
type CompatibleVaultsReply struct {
	Vaults []loid.LOID
}

// VaultOKArgs asks whether a specific vault is usable with the Host.
// Sent to a Vault, it asks the vault to verify its own identity (and,
// when Zone is non-empty, compatibility with a host in that zone).
type VaultOKArgs struct {
	Vault loid.LOID
	// Zone, when non-empty, additionally asks for zone compatibility
	// (paper §3.1: vaults "verify that they are compatible with a Host").
	Zone string
}

// BoolReply is a generic boolean result.
type BoolReply struct {
	OK bool
}

// AttributesReply carries an object's attribute snapshot.
type AttributesReply struct {
	Attrs []attr.Pair
}

// DefineTriggerArgs installs a guarded trigger on a Host (§2.1). Guard is
// a query-language expression over the Host's attributes.
type DefineTriggerArgs struct {
	Name  string
	Guard string
}

// RegisterOutcallArgs registers a Monitor for a trigger's events (§3.5).
// The Host invokes MethodNotify on the Monitor LOID when the trigger
// fires. An empty Trigger registers for all triggers.
type RegisterOutcallArgs struct {
	Trigger string
	Monitor loid.LOID
}

// NotifyArgs delivers a fired trigger event to a Monitor.
type NotifyArgs struct {
	Source  loid.LOID
	Trigger string
	Attrs   []attr.Pair
	Time    time.Time
}

// --- Vault messages ---

// StoreOPRArgs stores an object's passive state.
type StoreOPRArgs struct {
	OPR *opr.OPR
}

// RetrieveOPRArgs fetches the newest stored OPR for an object.
type RetrieveOPRArgs struct {
	Object loid.LOID
}

// RetrieveOPRReply carries the stored OPR.
type RetrieveOPRReply struct {
	OPR *opr.OPR
}

// DeleteOPRArgs removes an object's stored state.
type DeleteOPRArgs struct {
	Object loid.LOID
}

// --- Collection messages (Figure 4) ---

// JoinArgs registers a resource with a Collection, optionally installing
// initial descriptive information.
type JoinArgs struct {
	Joiner loid.LOID
	Attrs  []attr.Pair
	// Credential authenticates the caller; the Collection's auth hook
	// decides whether the update is allowed (§3.2 "The security
	// facilities of Legion authenticate the caller").
	Credential string
}

// LeaveArgs removes a resource's record.
type LeaveArgs struct {
	Leaver     loid.LOID
	Credential string
}

// UpdateArgs replaces/merges a member's descriptive information.
type UpdateArgs struct {
	Member     loid.LOID
	Attrs      []attr.Pair
	Credential string
}

// BatchEntry is one member's contribution to a coalesced update batch.
type BatchEntry struct {
	Member loid.LOID
	Attrs  []attr.Pair
	// UpdateOnly entries are dropped when the member is not currently in
	// the Collection instead of joining it — the failure detector's
	// down-flag must never resurrect (or create) a record for a resource
	// that was pruned or never deposited.
	UpdateOnly bool
}

// BatchUpdateArgs deposits many members' updates in one call. Entries
// apply in slice order, so a member's later entries win.
type BatchUpdateArgs struct {
	Entries    []BatchEntry
	Credential string
}

// BatchUpdateReply reports how many entries were applied; Dropped counts
// UpdateOnly entries skipped for absent members plus entries refused by
// the authorizer.
type BatchUpdateReply struct {
	Applied int
	Dropped int
}

// QueryArgs runs a query-language expression over all records.
type QueryArgs struct {
	Query string
}

// CollectionRecord is one resource description. UpdatedAt is the
// depositing Collection's receipt time for the latest update — under
// batched daemon pushes records are bounded-stale, and the timestamp
// lets federated callers judge that staleness for themselves.
type CollectionRecord struct {
	Member    loid.LOID
	Attrs     []attr.Pair
	UpdatedAt time.Time
}

// QueryReply is the CollectionData result: every record matching the
// query. SkippedShards is non-zero only for queries answered by a
// hierarchical Router: it counts Collection shards that contributed no
// records because they were unreachable, timed out, or breaker-open —
// the partial-result semantics callers may surface or ignore.
type QueryReply struct {
	Records       []CollectionRecord
	SkippedShards int
}

// --- Class object messages ---

// Placement directs create_instance to a reserved (Host, Vault) pair;
// the paper's "optional argument containing an LOID and a reservation
// token" enabling externally computed schedules.
type Placement struct {
	Host  loid.LOID
	Vault loid.LOID
	Token reservation.Token
}

// CreateInstanceArgs asks a class to instantiate objects. With Placement
// nil the class makes its own quick placement decision (§2.1); with
// Placement set it validates the directed placement against local policy
// and uses it.
type CreateInstanceArgs struct {
	Count     int
	Placement *Placement
	// State reactivates an instance from an OPR (migration).
	State *opr.OPR
}

// CreateInstanceReply reports the created instances and where they run.
type CreateInstanceReply struct {
	Instances []loid.LOID
	Host      loid.LOID
	Vault     loid.LOID
}

// Implementation describes one available object implementation; the
// Scheduler queries these to match hosts ("query the class for available
// implementations", Fig 7).
type Implementation struct {
	Arch string
	OS   string
	// MemoryMB is the implementation's expected memory footprint,
	// queryable by resource-aware schedulers.
	MemoryMB int
}

// ImplementationsReply lists a class's implementations.
type ImplementationsReply struct {
	Impls []Implementation
}

// InstancesReply lists a class's live instances.
type InstancesReply struct {
	Instances []loid.LOID
}

// --- Enactor messages (Figure 6) ---

// MakeReservationsArgs passes the entire schedule structure.
type MakeReservationsArgs struct {
	Request sched.RequestList
	// RequesterDomain names the calling Scheduler's domain; the
	// Enactor's admission controller uses it for per-domain fair-share
	// accounting. Empty means "unattributed" (one shared bucket).
	RequesterDomain string
}

// FeedbackReply wraps the LegionScheduleFeedback.
type FeedbackReply struct {
	Feedback sched.Feedback
}

// EnactScheduleArgs instantiates the objects of a previously reserved
// request.
type EnactScheduleArgs struct {
	RequestID uint64
}

// EnactReply reports per-mapping instantiation results.
type EnactReply struct {
	// Instances[i] are the objects created for resolved mapping i.
	Instances [][]loid.LOID
	Success   bool
	Detail    string
}

// CancelReservationsArgs releases a request's reservations.
type CancelReservationsArgs struct {
	RequestID uint64
}

// Ack is an empty success reply.
type Ack struct{}

// --- Economy account messages (DESIGN.md §15) ---

// AccountArgs names a tenant account for status queries.
type AccountArgs struct {
	Tenant string
}

// AccountDepositArgs funds a tenant's account. Amount is in economy
// credits (millionths of a price unit, see economy.Credits) so the
// ledger's integer conservation arithmetic crosses the wire exactly.
type AccountDepositArgs struct {
	Tenant string
	Amount int64
}

// AccountReply is a tenant account snapshot, all amounts in economy
// credits.
type AccountReply struct {
	Tenant    string
	Budget    int64
	Spent     int64
	Refunded  int64
	Remaining int64
}
