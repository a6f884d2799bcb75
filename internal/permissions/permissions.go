// Package permissions is the registry of browser permissions (the
// specification calls them "features"; the paper calls everything a
// permission). For each permission it records the characteristics the
// study relies on:
//
//   - whether the permission is policy-controlled (has an allowlist that
//     the Permissions-Policy header and iframe allow attribute govern);
//   - its default allowlist (self or *), per the individual feature
//     specifications;
//   - whether it is a powerful feature (requires explicit user consent,
//     usually via a prompt);
//   - the Web-API surface associated with it, used both by the static
//     analyzer (string matching, §3.1.1) and the dynamic instrumentation
//     (§3.1.1, Figure 1);
//   - a coarse purpose category matching the grouping of §4.2.1.
//
// The registry covers the complete instrumented list of Appendix A.4 plus
// the User-Agent Client-Hints features that dominate embedded-document
// headers (§4.3.2).
package permissions

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultAllowlist is a permission's default allowlist as defined by its
// specification (§2.2.1 of the paper).
type DefaultAllowlist uint8

const (
	// DefaultNone marks permissions that are not policy-controlled; they
	// have no allowlist at all (paper Table 2: notifications, push).
	DefaultNone DefaultAllowlist = iota
	// DefaultSelf allows the permission only in same-origin contexts.
	DefaultSelf
	// DefaultAll ("*") allows the permission in all contexts, including
	// arbitrarily nested third-party iframes.
	DefaultAll
)

func (d DefaultAllowlist) String() string {
	switch d {
	case DefaultSelf:
		return "self"
	case DefaultAll:
		return "*"
	default:
		return "N/A"
	}
}

// Category is the coarse purpose grouping used in §4.2.1.
type Category uint8

const (
	CategoryOther Category = iota
	CategoryAds
	CategoryMedia
	CategorySensor
	CategoryCommunication
	CategoryPayment
	CategoryIdentity
	CategoryStorage
	CategoryInput
	CategoryDevice
	CategoryDisplay
	CategoryClientHints
)

var categoryNames = map[Category]string{
	CategoryOther:         "other",
	CategoryAds:           "ads",
	CategoryMedia:         "media",
	CategorySensor:        "sensor",
	CategoryCommunication: "communication",
	CategoryPayment:       "payment",
	CategoryIdentity:      "identity",
	CategoryStorage:       "storage",
	CategoryInput:         "input",
	CategoryDevice:        "device",
	CategoryDisplay:       "display",
	CategoryClientHints:   "client-hints",
}

func (c Category) String() string { return categoryNames[c] }

// Permission describes one entry of the registry.
type Permission struct {
	// Name is the policy token ("camera", "browsing-topics", ...). For
	// permissions that are not policy-controlled it is the conventional
	// permission name ("notifications").
	Name string
	// DisplayName is the human-readable name the paper's tables use
	// ("Browsing Topics", "Public Key Credentials Get").
	DisplayName string
	// Default is the default allowlist; DefaultNone for permissions that
	// are not policy-controlled.
	Default DefaultAllowlist
	// Powerful marks features that require explicit user consent.
	Powerful bool
	// Category is the purpose grouping of §4.2.1.
	Category Category
	// APIs are the Web-API expressions associated with this permission.
	// They double as the static-analysis string patterns and as the
	// dynamic instrumentation points.
	APIs []string
	// QueryName, when non-empty, is the name accepted by
	// navigator.permissions.query({name: ...}) for this permission.
	QueryName string
}

// PolicyControlled reports whether the permission has an allowlist.
func (p Permission) PolicyControlled() bool { return p.Default != DefaultNone }

// registry holds every known permission in registration order;
// position maps each Name to its index there.
var (
	registry []Permission
	position = map[string]int{}
)

func register(p Permission) {
	if p.DisplayName == "" {
		p.DisplayName = titleize(p.Name)
	}
	if _, dup := position[p.Name]; dup {
		panic(fmt.Sprintf("permissions: duplicate registration of %q", p.Name))
	}
	position[p.Name] = len(registry)
	registry = append(registry, p)
}

func titleize(name string) string {
	parts := strings.Split(name, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, " ")
}

// Lookup returns the permission registered under name, ignoring case
// and surrounding space.
func Lookup(name string) (Permission, bool) {
	i, ok := position[name]
	if !ok {
		i, ok = position[strings.ToLower(strings.TrimSpace(name))]
	}
	if !ok {
		return Permission{}, false
	}
	return registry[i], true
}

// Index returns the registry position of the permission named exactly
// name — no case or space folding — so per-feature state can live in a
// slice parallel to All().
func Index(name string) (int, bool) {
	i, ok := position[name]
	return i, ok
}

// Known reports whether name is a registered permission token.
func Known(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// All returns every registered permission in registration order. The
// slice is the registry itself, shared by every caller: read it, never
// write through it (append copies, since it is returned at capacity).
func All() []Permission {
	return registry[:len(registry):len(registry)]
}

// PolicyControlledNames returns the sorted names of all policy-controlled
// permissions — the set a complete Permissions-Policy header must cover
// (§6.2: no measured website declared a directive for all of them).
func PolicyControlledNames() []string {
	var out []string
	for _, p := range registry {
		if p.PolicyControlled() {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// PowerfulNames returns the sorted names of all powerful permissions.
func PowerfulNames() []string {
	var out []string
	for _, p := range registry {
		if p.Powerful {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ByQueryName resolves a navigator.permissions.query name to the
// registered permission (query names sometimes differ from policy
// tokens, e.g. query "notifications" ↔ Notification API).
func ByQueryName(name string) (Permission, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, p := range registry {
		if p.QueryName == name {
			return p, true
		}
	}
	return Lookup(name)
}

func init() {
	// Sensors (tracking-relevant per §4.1.4).
	register(Permission{Name: "accelerometer", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"new Accelerometer", "Accelerometer("}, QueryName: "accelerometer"})
	register(Permission{Name: "ambient-light-sensor", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"new AmbientLightSensor", "AmbientLightSensor("}, QueryName: "ambient-light-sensor"})
	register(Permission{Name: "gyroscope", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"new Gyroscope", "Gyroscope("}, QueryName: "gyroscope"})
	register(Permission{Name: "magnetometer", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"new Magnetometer", "Magnetometer("}, QueryName: "magnetometer"})
	register(Permission{Name: "battery", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"navigator.getBattery"}})
	register(Permission{Name: "compute-pressure", Default: DefaultSelf, Category: CategorySensor,
		APIs: []string{"new PressureObserver", "PressureObserver("}})

	// Media and display.
	register(Permission{Name: "camera", Default: DefaultSelf, Powerful: true, Category: CategoryMedia,
		APIs: []string{"navigator.mediaDevices.getUserMedia", "getUserMedia"}, QueryName: "camera"})
	register(Permission{Name: "microphone", Default: DefaultSelf, Powerful: true, Category: CategoryMedia,
		APIs: []string{"navigator.mediaDevices.getUserMedia", "getUserMedia"}, QueryName: "microphone"})
	register(Permission{Name: "display-capture", Default: DefaultSelf, Powerful: true, Category: CategoryMedia,
		APIs: []string{"navigator.mediaDevices.getDisplayMedia", "getDisplayMedia"}})
	register(Permission{Name: "autoplay", Default: DefaultSelf, Category: CategoryMedia,
		APIs: []string{"autoplay"}})
	register(Permission{Name: "encrypted-media", Default: DefaultSelf, Category: CategoryMedia,
		APIs: []string{"requestMediaKeySystemAccess"}})
	register(Permission{Name: "fullscreen", Default: DefaultSelf, Category: CategoryDisplay,
		APIs: []string{"requestFullscreen"}})
	register(Permission{Name: "picture-in-picture", Default: DefaultAll, Category: CategoryDisplay,
		APIs: []string{"requestPictureInPicture"}})
	register(Permission{Name: "screen-wake-lock", Default: DefaultSelf, Category: CategoryDisplay,
		APIs: []string{"navigator.wakeLock.request"}, QueryName: "screen-wake-lock"})
	register(Permission{Name: "system-wake-lock", Default: DefaultSelf, Category: CategoryDisplay,
		APIs: []string{"systemWakeLock"}})
	register(Permission{Name: "speaker-selection", Default: DefaultSelf, Category: CategoryMedia,
		APIs: []string{"selectAudioOutput", "setSinkId"}})
	register(Permission{Name: "vr", DisplayName: "VR", Default: DefaultSelf, Category: CategoryDisplay,
		APIs: []string{"getVRDisplays"}})
	register(Permission{Name: "xr-spatial-tracking", DisplayName: "XR Spatial Tracking",
		Default: DefaultSelf, Powerful: true, Category: CategoryDisplay,
		APIs: []string{"navigator.xr.requestSession"}})

	// Location and communication.
	register(Permission{Name: "geolocation", Default: DefaultSelf, Powerful: true, Category: CategorySensor,
		APIs:      []string{"navigator.geolocation.getCurrentPosition", "navigator.geolocation.watchPosition"},
		QueryName: "geolocation"})
	register(Permission{Name: "notifications", Default: DefaultNone, Powerful: true, Category: CategoryCommunication,
		APIs: []string{"Notification.requestPermission", "new Notification"}, QueryName: "notifications"})
	register(Permission{Name: "push", Default: DefaultNone, Powerful: true, Category: CategoryCommunication,
		APIs: []string{"pushManager.subscribe"}, QueryName: "push"})
	register(Permission{Name: "web-share", Default: DefaultSelf, Category: CategoryCommunication,
		APIs: []string{"navigator.share", "navigator.canShare"}})

	// Clipboard and input.
	register(Permission{Name: "clipboard-read", Default: DefaultSelf, Powerful: true, Category: CategoryInput,
		APIs: []string{"navigator.clipboard.readText", "navigator.clipboard.read"}, QueryName: "clipboard-read"})
	register(Permission{Name: "clipboard-write", Default: DefaultSelf, Category: CategoryInput,
		APIs: []string{"navigator.clipboard.writeText", "navigator.clipboard.write"}, QueryName: "clipboard-write"})
	register(Permission{Name: "keyboard-lock", Default: DefaultSelf, Category: CategoryInput,
		APIs: []string{"navigator.keyboard.lock"}})
	register(Permission{Name: "keyboard-map", DisplayName: "keyboard-map", Default: DefaultSelf, Category: CategoryInput,
		APIs: []string{"navigator.keyboard.getLayoutMap"}})
	register(Permission{Name: "pointer-lock", Default: DefaultSelf, Category: CategoryInput,
		APIs: []string{"requestPointerLock"}})
	register(Permission{Name: "gamepad", Default: DefaultAll, Category: CategoryInput,
		APIs: []string{"navigator.getGamepads"}})
	register(Permission{Name: "local-fonts", Default: DefaultSelf, Powerful: true, Category: CategoryInput,
		APIs: []string{"queryLocalFonts"}, QueryName: "local-fonts"})
	register(Permission{Name: "idle-detection", Default: DefaultSelf, Powerful: true, Category: CategoryInput,
		APIs: []string{"new IdleDetector", "IdleDetector.requestPermission"}, QueryName: "idle-detection"})
	register(Permission{Name: "window-management", Default: DefaultSelf, Powerful: true, Category: CategoryDisplay,
		APIs: []string{"getScreenDetails"}, QueryName: "window-management"})

	// Devices.
	register(Permission{Name: "bluetooth", Default: DefaultSelf, Powerful: true, Category: CategoryDevice,
		APIs: []string{"navigator.bluetooth.requestDevice"}})
	register(Permission{Name: "usb", DisplayName: "USB", Default: DefaultSelf, Powerful: true, Category: CategoryDevice,
		APIs: []string{"navigator.usb.requestDevice"}})
	register(Permission{Name: "serial", Default: DefaultSelf, Powerful: true, Category: CategoryDevice,
		APIs: []string{"navigator.serial.requestPort"}})
	register(Permission{Name: "hid", DisplayName: "HID", Default: DefaultSelf, Powerful: true, Category: CategoryDevice,
		APIs: []string{"navigator.hid.requestDevice"}})
	register(Permission{Name: "midi", DisplayName: "MIDI", Default: DefaultSelf, Powerful: true, Category: CategoryDevice,
		APIs: []string{"navigator.requestMIDIAccess"}, QueryName: "midi"})
	register(Permission{Name: "direct-sockets", Default: DefaultSelf, Category: CategoryDevice,
		APIs: []string{"new TCPSocket", "new UDPSocket"}})

	// Storage and identity.
	register(Permission{Name: "storage-access", Default: DefaultAll, Powerful: true, Category: CategoryStorage,
		APIs: []string{"document.requestStorageAccess", "document.hasStorageAccess"}, QueryName: "storage-access"})
	register(Permission{Name: "top-level-storage-access", Default: DefaultSelf, Powerful: true, Category: CategoryStorage,
		APIs: []string{"document.requestStorageAccessFor"}, QueryName: "top-level-storage-access"})
	register(Permission{Name: "publickey-credentials-get", DisplayName: "Public Key Credentials Get",
		Default: DefaultSelf, Powerful: true, Category: CategoryIdentity,
		APIs: []string{"navigator.credentials.get"}})
	register(Permission{Name: "publickey-credentials-create", DisplayName: "Public Key Credentials Create",
		Default: DefaultSelf, Powerful: true, Category: CategoryIdentity,
		APIs: []string{"navigator.credentials.create"}})
	register(Permission{Name: "identity-credentials-get", Default: DefaultSelf, Category: CategoryIdentity,
		APIs: []string{"navigator.credentials.get"}})
	register(Permission{Name: "otp-credentials", DisplayName: "OTP Credentials", Default: DefaultSelf, Category: CategoryIdentity,
		APIs: []string{"OTPCredential"}})

	// Payment.
	register(Permission{Name: "payment", Default: DefaultSelf, Category: CategoryPayment,
		APIs: []string{"new PaymentRequest", "PaymentRequest("}, QueryName: "payment-handler"})

	// Advertising / Privacy-Sandbox.
	register(Permission{Name: "attribution-reporting", Default: DefaultAll, Category: CategoryAds,
		APIs: []string{"attributionReporting", "attributionsrc"}})
	register(Permission{Name: "browsing-topics", Default: DefaultAll, Category: CategoryAds,
		APIs: []string{"document.browsingTopics"}})
	register(Permission{Name: "run-ad-auction", Default: DefaultAll, Category: CategoryAds,
		APIs: []string{"navigator.runAdAuction"}})
	register(Permission{Name: "join-ad-interest-group", Default: DefaultAll, Category: CategoryAds,
		APIs: []string{"navigator.joinAdInterestGroup"}})
	register(Permission{Name: "interest-cohort", Default: DefaultAll, Category: CategoryAds,
		APIs: []string{"document.interestCohort"}})
	register(Permission{Name: "private-state-token-issuance", Default: DefaultSelf, Category: CategoryAds,
		APIs: []string{"hasPrivateToken"}})

	// Misc platform features.
	register(Permission{Name: "sync-xhr", DisplayName: "sync-xhr", Default: DefaultAll, Category: CategoryOther,
		APIs: []string{"XMLHttpRequest"}})
	register(Permission{Name: "cross-origin-isolated", Default: DefaultSelf, Category: CategoryOther,
		APIs: []string{"crossOriginIsolated"}})

	// User-Agent Client Hints: the nine most prevalent embedded-document
	// header directives (§4.3.2). All default to self per the UA-CH spec.
	for _, hint := range []string{
		"ch-ua", "ch-ua-arch", "ch-ua-bitness", "ch-ua-full-version",
		"ch-ua-full-version-list", "ch-ua-mobile", "ch-ua-model",
		"ch-ua-platform", "ch-ua-platform-version", "ch-ua-wow64",
	} {
		register(Permission{Name: hint, DisplayName: strings.ToUpper(hint[:5]) + hint[5:],
			Default: DefaultSelf, Category: CategoryClientHints,
			APIs: []string{"navigator.userAgentData"}})
	}
}
