package federation

import (
	"fmt"

	"socialscope/internal/graph"
)

// Model is one of Section 6.1's management models, exercised through a
// uniform behavioural interface so the Table 2 comparison can be *probed*
// rather than asserted: register a user, connect two users, record an
// activity, and materialize the social content graph the content site can
// analyze.
type Model interface {
	Name() string
	// RegisterUser makes the user known wherever the model keeps profiles.
	RegisterUser(p Profile) error
	// Connect establishes a social connection under the model's rules.
	Connect(from, to string) error
	// RecordActivity stores a user action on a content item.
	RecordActivity(a Activity) error
	// AddItem adds a content item (always owned by the content site
	// conceptually; Closed Cartel surrenders its presentation).
	AddItem(id string, keywords []string)
	// LocalGraph materializes the social content graph as visible to the
	// content site: the basis for "can the content site analyze the
	// graph?" probes.
	LocalGraph() (*graph.Graph, error)
	// RemoteCalls reports the simulated API traffic incurred so far.
	RemoteCalls() APIStats
}

// contentStore is the content site's own storage, shared by the models.
type contentStore struct {
	items map[string][]string // id -> keywords
	// local users/connections/activities; which of these are used depends
	// on the model.
	profiles    map[string]Profile
	connections []Connection
	activities  []Activity
}

func newContentStore() *contentStore {
	return &contentStore{items: make(map[string][]string), profiles: make(map[string]Profile)}
}

// buildGraph assembles a social content graph from explicit parts.
func buildGraph(profiles map[string]Profile, conns []Connection, acts []Activity,
	items map[string][]string) (*graph.Graph, error) {
	g := graph.New()
	ids := graph.NewIDSource(0, 0)
	ext := make(map[string]graph.NodeID)
	ensureUser := func(id string) graph.NodeID {
		if nid, ok := ext[id]; ok {
			return nid
		}
		n := graph.NewNode(ids.NextNode(), graph.TypeUser)
		n.Attrs.Set("ext", id)
		if p, ok := profiles[id]; ok {
			n.Attrs.Set("name", p.Name)
			if len(p.Interests) > 0 {
				n.Attrs.Set("interests", p.Interests...)
			}
		}
		if err := g.AddNode(n); err != nil {
			panic("federation: buildGraph internal: " + err.Error())
		}
		ext[id] = n.ID
		return n.ID
	}
	itemIDs := make(map[string]graph.NodeID)
	for id, kw := range items {
		n := graph.NewNode(ids.NextNode(), graph.TypeItem)
		n.Attrs.Set("ext", id)
		if len(kw) > 0 {
			n.Attrs.Set("keywords", kw...)
		}
		if err := g.AddNode(n); err != nil {
			return nil, err
		}
		itemIDs[id] = n.ID
	}
	for _, c := range conns {
		l := graph.NewLink(ids.NextLink(), ensureUser(c.From), ensureUser(c.To),
			graph.TypeConnect, c.Kind)
		if err := g.AddLink(l); err != nil {
			return nil, err
		}
	}
	for _, a := range acts {
		item, ok := itemIDs[a.Item]
		if !ok {
			continue // activity on content another site owns
		}
		l := graph.NewLink(ids.NextLink(), ensureUser(a.User), item, graph.TypeAct, a.Kind)
		if len(a.Tags) > 0 {
			l.SetAttr("tags", a.Tags...)
		}
		if err := g.AddLink(l); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// --- Decentralized ---------------------------------------------------------

// Decentralized: the content site maintains its own social information
// end-to-end. Full control, zero remote traffic, but users must rebuild
// profiles and connections per site (the cold-start problem).
type Decentralized struct {
	store *contentStore
	stats APIStats
}

// NewDecentralized builds a decentralized content site.
func NewDecentralized() *Decentralized { return &Decentralized{store: newContentStore()} }

// Name identifies the model.
func (d *Decentralized) Name() string { return "decentralized" }

// RegisterUser stores the profile locally.
func (d *Decentralized) RegisterUser(p Profile) error {
	d.store.profiles[p.ID] = p
	return nil
}

// Connect stores the connection locally; both users must have registered
// here (the duplicated-effort cost the model imposes).
func (d *Decentralized) Connect(from, to string) error {
	if _, ok := d.store.profiles[from]; !ok {
		return fmt.Errorf("federation: decentralized site requires local profile %q", from)
	}
	if _, ok := d.store.profiles[to]; !ok {
		return fmt.Errorf("federation: decentralized site requires local profile %q", to)
	}
	d.store.connections = append(d.store.connections, Connection{From: from, To: to, Kind: "friend"})
	return nil
}

// RecordActivity stores the activity locally.
func (d *Decentralized) RecordActivity(a Activity) error {
	d.store.activities = append(d.store.activities, a)
	return nil
}

// AddItem stores a content item.
func (d *Decentralized) AddItem(id string, keywords []string) { d.store.items[id] = keywords }

// LocalGraph exposes the complete graph — full analytical control.
func (d *Decentralized) LocalGraph() (*graph.Graph, error) {
	return buildGraph(d.store.profiles, d.store.connections, d.store.activities, d.store.items)
}

// RemoteCalls is always zero for the decentralized model.
func (d *Decentralized) RemoteCalls() APIStats { return d.stats }

// --- Closed Cartel -----------------------------------------------------------

// ClosedCartel: the social site hosts profiles, connections AND the
// content site's activities; the content site is reduced to an
// application. Every social observation is a remote call, and the site
// cannot see the social graph beyond per-user lookups.
type ClosedCartel struct {
	store  *contentStore
	social *SocialSite
}

// NewClosedCartel builds a content site operating inside the given social
// site.
func NewClosedCartel(social *SocialSite) *ClosedCartel {
	return &ClosedCartel{store: newContentStore(), social: social}
}

// Name identifies the model.
func (c *ClosedCartel) Name() string { return "closed-cartel" }

// RegisterUser registers at the social site (users have one central
// presence; without it they cannot reach the content).
func (c *ClosedCartel) RegisterUser(p Profile) error {
	c.social.CreateProfile(p)
	return nil
}

// Connect happens at the social site.
func (c *ClosedCartel) Connect(from, to string) error {
	return c.social.Connect(from, to, "friend")
}

// RecordActivity delegates storage to the social site (one remote call).
func (c *ClosedCartel) RecordActivity(a Activity) error {
	c.social.PushActivity(a)
	return nil
}

// AddItem keeps the item at the content site (its one remaining asset).
func (c *ClosedCartel) AddItem(id string, keywords []string) { c.store.items[id] = keywords }

// LocalGraph reconstructs what the application can see: it must fetch
// every user's profile, connections and activities through the API —
// comprehensive analysis is priced accordingly, and only spans users the
// site has observed.
func (c *ClosedCartel) LocalGraph() (*graph.Graph, error) {
	profiles := make(map[string]Profile)
	var conns []Connection
	var acts []Activity
	for _, id := range c.social.Users() {
		p, err := c.social.FetchProfile(id)
		if err != nil {
			return nil, err
		}
		profiles[id] = p
		cs, err := c.social.FetchConnections(id)
		if err != nil {
			return nil, err
		}
		conns = append(conns, cs...)
		acts = append(acts, c.social.FetchActivities(id)...)
	}
	return buildGraph(profiles, conns, acts, c.store.items)
}

// RemoteCalls reports the social site's accumulated charges.
func (c *ClosedCartel) RemoteCalls() APIStats { return c.social.Stats() }

// --- Open Cartel --------------------------------------------------------------

// OpenCartel: the social site remains authoritative for profiles and
// connections, but the content site syncs them into a local replica
// (through the Content Integrator), manages its own activities, and
// propagates locally-created connections back. Control is shared;
// analysis runs locally on the synced replica.
type OpenCartel struct {
	store      *contentStore
	social     *SocialSite
	integrator *Integrator
}

// NewOpenCartel builds a content site federated with the social site.
func NewOpenCartel(social *SocialSite) *OpenCartel {
	return &OpenCartel{
		store:      newContentStore(),
		social:     social,
		integrator: NewIntegrator(social),
	}
}

// Name identifies the model.
func (o *OpenCartel) Name() string { return "open-cartel" }

// RegisterUser registers at the social site; the local replica picks the
// profile up on the next sync.
func (o *OpenCartel) RegisterUser(p Profile) error {
	o.social.CreateProfile(p)
	return nil
}

// Connect establishes the connection locally and pushes it back to the
// social site (one remote call) — the symbiosis the paper describes.
func (o *OpenCartel) Connect(from, to string) error {
	conn := Connection{From: from, To: to, Kind: "friend"}
	o.store.connections = append(o.store.connections, conn)
	return o.social.PushConnection(conn)
}

// RecordActivity stays local: the content site controls its activities.
func (o *OpenCartel) RecordActivity(a Activity) error {
	o.store.activities = append(o.store.activities, a)
	return nil
}

// AddItem stores a content item locally.
func (o *OpenCartel) AddItem(id string, keywords []string) { o.store.items[id] = keywords }

// Sync refreshes the local replica of profiles and connections for the
// given users (or all known social-site users when nil).
func (o *OpenCartel) Sync(users []string) error {
	if users == nil {
		users = o.social.Users()
	}
	profiles, conns, err := o.integrator.Pull(users)
	if err != nil {
		return err
	}
	for id, p := range profiles {
		o.store.profiles[id] = p
	}
	// Replace remote-sourced connections; keep locally-created ones (they
	// were pushed back, so the pull returns them too — dedup by identity).
	seen := make(map[Connection]struct{})
	var merged []Connection
	for _, c := range append(conns, o.store.connections...) {
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		merged = append(merged, c)
	}
	o.store.connections = merged
	return nil
}

// LocalGraph materializes the replica plus local activities — analysis is
// local and complete up to replica staleness.
func (o *OpenCartel) LocalGraph() (*graph.Graph, error) {
	return buildGraph(o.store.profiles, o.store.connections, o.store.activities, o.store.items)
}

// RemoteCalls reports the social site's accumulated charges.
func (o *OpenCartel) RemoteCalls() APIStats { return o.social.Stats() }
