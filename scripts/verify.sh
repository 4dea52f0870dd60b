#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build and test entirely
# offline, no manifest may declare a registry (crates.io) dependency,
# formatting and clippy must be clean, every example must run, the seeded
# chaos suite must be deterministic (same seed -> byte-identical event
# transcript AND trace dump across two fresh processes) — the
# network-faults-only profile, the combined crash/restart profile
# (seeded process kills + write-ahead-journal recovery), the striped
# GridFTP scenario (mid-stripe kills + AIMD congestion control), and the
# credential-lifetime suite (expiry-storm renewal waves + portal armed
# kills with exactly-once proxy issuance) — the
# perf claims must hold, the storm/striped bench metrics must be
# two-run byte-identical, a one-slice gridbench run must come out
# correct, and the committed EXPERIMENTS.md tables must match what the
# pinned seed regenerates (drift gate).
#
# The pipeline is a sequence of named stages. Each stage is timed; the
# wall-clock table is printed at the end and written to
# $GRIDSEC_STAGE_TIMINGS (markdown) for CI job summaries.
#
# Usage:
#   scripts/verify.sh                 run every stage
#   scripts/verify.sh --stage NAME    run one stage (repeatable)
#   scripts/verify.sh --list          list stage names
#
# Knobs:
#   GRIDSEC_CHAOS_SEED     seed for the chaos stages (default pinned below)
#   GRIDSEC_VERIFY_TMPDIR  scratch dir (kept for the caller; default mktemp,
#                          removed on exit) — CI uploads it on failure
#   GRIDSEC_STAGE_TIMINGS  where to write the markdown timing table
#   GRIDSEC_VERIFY_DEEP=1  elevate property-test case counts
#                          (GRIDSEC_PT_CASES) and sweep a crash-schedule
#                          seed matrix
#   GRIDSEC_STORM_PRINCIPALS, GRIDSEC_CRYPTO_STORM_PRINCIPALS,
#   GRIDSEC_STORM_SESSIONS, GRIDSEC_STRIPED_BYTES
#                          size of the storm and striped smokes, passed to
#                          the bench bins as flags (each bin's own default
#                          seed is used)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${GRIDSEC_VERIFY_DEEP:-0}" = "1" ]; then
    # Deep mode: drive every `check` property through far more cases.
    export GRIDSEC_PT_CASES="${GRIDSEC_PT_CASES:-2000}"
    echo "== deep mode: GRIDSEC_PT_CASES=$GRIDSEC_PT_CASES =="
fi

chaos_seed="${GRIDSEC_CHAOS_SEED:-0xC4A05EED}"
if [ -n "${GRIDSEC_VERIFY_TMPDIR:-}" ]; then
    tdir="$GRIDSEC_VERIFY_TMPDIR"
    mkdir -p "$tdir"
else
    tdir="$(mktemp -d)"
    trap 'rm -rf "$tdir"' EXIT
fi
timings="${GRIDSEC_STAGE_TIMINGS:-$tdir/stage-timings.md}"

# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

stage_grep_guard() {
    # The seven dependencies removed in the hermetic-build change must not
    # return.
    if grep -rE '^(parking_lot|crossbeam|rand|bytes|serde|proptest|criterion)\b' \
        Cargo.toml crates/*/Cargo.toml; then
        echo "FAIL: banned registry dependency declared above" >&2
        exit 1
    fi
    # More generally: every dependency entry must be a path or workspace dep.
    # Scan [dependencies]/[dev-dependencies]/[build-dependencies] sections for
    # entries that reference neither `path =` nor `workspace = true`.
    local bad=0
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        while IFS= read -r line; do
            echo "FAIL: non-path dependency in $manifest: $line" >&2
            bad=1
        done < <(awk '
            /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) }
            in_deps && /^[A-Za-z0-9_-]+ *=/ && !/path *=/ && !/workspace *= *true/ { print }
        ' "$manifest")
    done
    [ "$bad" -eq 0 ] || exit 1
    # Everything runs on the testbed scheduler: no crate may spawn or
    # scope a thread (doc comments excepted).
    if grep -rEn 'thread::(spawn|scope)\(' crates/*/src | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: thread spawn/scope above" >&2
        exit 1
    fi
    # The scheduler is the one clock owner and wait loop (DESIGN.md
    # §12.1): the per-object pump hooks and the private wait loops it
    # replaced must not come back, and only it may ask the network when
    # the next delivery is due.
    if grep -rEn 'set_pump|with_stream_pump|recv_timeout|fn wait_reply' \
        crates tests examples; then
        echo "FAIL: a retired pump hook or wait loop is back (above)" >&2
        exit 1
    fi
    if grep -rEn 'next_event_at\(' crates tests examples \
        | grep -vE '^crates/testbed/src/sched\.rs:|fn next_event_at\('; then
        echo "FAIL: next_event_at called outside testbed::sched (above)" >&2
        exit 1
    fi
    # A world is single-threaded, so its state has one owner all the way
    # up (DESIGN.md §12.5): `Rc<RefCell<_>>` or plain ownership, one
    # time-bucketed FIFO for deliveries and timers. No lock, channel or
    # `Arc` may come back (doc comments excepted) but on two allow-lists:
    # the crypto-pool handle, whose `Arc<Mutex<CryptoPool>>` type the
    # frozen benchmark/ crate builds itself (ROADMAP 1(a)), and, for
    # `Arc` alone, immutable values that `static OnceLock` fixtures share
    # across test threads: the precomputation in crypto::{rsa,dh} and a
    # credential's and a trust store's certificates in pki::{credential,store}.
    local scope='crates/*/src crates/*/tests crates/*/benches tests examples'
    local pool_files='crates/(tls/src/(handshake|pool)|gssapi/src/mill|integration/src/scenarios/crypto_storm)\.rs'
    local pool_lines='use std::sync::|CryptoPool|RsaVerifyCtx|verify_ctx\(\)|Arc::clone\(&?(self\.)?(pool|client_pool|ctx)\)'
    # shellcheck disable=SC2086
    if grep -rEn 'Mutex|RwLock|mpsc|util::(sync|channel)' $scope \
        | grep -vE '^[^:]+:[0-9]+: *//' \
        | grep -vE "^$pool_files:[0-9]+:.*($pool_lines)"; then
        echo "FAIL: a lock or channel is back above (one owner: Rc<RefCell<_>>)" >&2
        exit 1
    fi
    # shellcheck disable=SC2086
    if grep -rEn '\bArc\b' $scope \
        | grep -vE '^[^:]+:[0-9]+: *//' \
        | grep -vE "^$pool_files:[0-9]+:.*($pool_lines)" \
        | grep -vE '^crates/(crypto/src/(rsa|dh)|pki/src/(credential|store))\.rs:'; then
        echo "FAIL: an Arc is back above (one owner: Rc)" >&2
        exit 1
    fi
    if grep -En 'BinaryHeap' crates/testbed/src/{net,sched,rpc,names,buckets}.rs; then
        echo "FAIL: a heap is back on the message path (above)" >&2
        exit 1
    fi
    local gone
    for gone in crates/util/src/channel.rs crates/util/src/sync.rs; do
        if [ -e "$gone" ]; then
            echo "FAIL: $gone is back; nothing may use it" >&2
            exit 1
        fi
    done
    # One form per paper §4.1 security service: CAS as credential
    # conversion is figure2_cas's inline step, renewal is the portal's
    # OP_RENEW (DESIGN.md §15), identity mapping is services::idmap_rpc,
    # and the MDS index is §2 context, not a mechanism the paper secures.
    for gone in crates/services/src/index.rs crates/services/src/cas_source.rs \
        crates/gsi/src/renewal.rs crates/services/src/identity_map.rs; do
        if [ -e "$gone" ]; then
            echo "FAIL: $gone is back; its service already has its one form" >&2
            exit 1
        fi
    done
    # Golden digests live in tests/golden.pins, where scripts/repin.sh
    # can re-record and tabulate them (DESIGN.md §11.6): a 64-hex literal
    # in a golden test is a pin the tool cannot see.
    if grep -En '[0-9a-f]{64}' crates/crypto/tests/golden_key.rs crates/crypto/tests/golden_rng.rs \
        crates/wsse/tests/golden_wire.rs crates/integration/tests/storm_golden.rs \
        crates/integration/tests/xfer_golden.rs crates/integration/tests/chaos_golden.rs; then
        echo "FAIL: digest literal in a golden test above; pins belong in tests/golden.pins" >&2
        exit 1
    fi
    # One keystream under both RNGs (DESIGN.md §17): util::chacha::Keystream
    # is the only refill, so outside the kernel's own file only the AEAD's
    # one-time key computes a single ChaCha block (test modules and
    # comments excepted).
    # shellcheck disable=SC2046
    if awk 'FNR == 1 { in_test = 0 }
            /^#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test && !/^ *\/\// && /chacha(20)?::block\(/ { print FILENAME ":" FNR ":" $0 }' \
        $(find crates/*/src -name '*.rs' | sort) \
        | grep -vE '^crates/(util/src/chacha|crypto/src/aead)\.rs:'; then
        echo "FAIL: a ChaCha block is computed outside util::chacha and the AEAD key (above); draw from util::chacha::Keystream" >&2
        exit 1
    fi
    # Crypto precomputation is owned by the key or group it is a function
    # of (DESIGN.md §11.1): no per-thread state may come back under the
    # crypto stack (doc comments excepted). `util::trace` keeps its own.
    if grep -rEn 'thread_local!' crates/bignum/src crates/crypto/src crates/pki/src \
        crates/tls/src crates/gssapi/src | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: thread_local! in the crypto stack above" >&2
        exit 1
    fi
    # A batch is a loop over the single form (DESIGN.md §13.2): one chain
    # walk with no signature callback, one hello acceptance, and no
    # per-issuer context map that hashes a key to find what is cheaper
    # to build. The deferred-signature batch validator must not return.
    if grep -rEn 'verify_signature_with|fn ctx_for|fn key_digest|struct SigJob|verify_ctxs|fn validate_chain_inner' \
        crates/pki/src crates/tls/src; then
        echo "FAIL: the batch validator's machinery is back in pki/tls (above)" >&2
        exit 1
    fi
    # A peer's chain is handled as the bytes it arrived in (DESIGN.md
    # §11.3): the verdict cache keys on them, and a credential's chain is
    # encoded once, on first use. No chain digest as a memo key, and
    # no per-message deep copy of a credential's chain to re-encode it in
    # the protocol crates (test modules excepted).
    if { grep -rEn 'chain_digest|MemoKey::Digest' crates
        awk 'FNR == 1 { in_test = 0 }
             /^#\[cfg\(test\)\]/ { in_test = 1 }
             !in_test && /\.chain\(\)\.to_vec\(\)/ { print FILENAME ":" FNR ":" $0 }' \
            crates/{tls,gssapi,wsse}/src/*.rs
    } | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a chain is re-encoded or re-hashed to be sent or looked up (above); use Credential::encoded_chain / CachedValidator::validate_wire" >&2
        exit 1
    fi
    # A record is opened where it arrived (DESIGN.md §16.1): the record
    # layer and the blocking shim open a buffer they own in place, so no
    # copying `.open(` of a record may come back there (test modules and
    # comments excepted).
    if awk 'FNR == 1 { in_test = 0 }
            /^#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test && !/^ *\/\// && /\.open\(/ { print FILENAME ":" FNR ":" $0 }' \
        crates/tls/src/records.rs crates/tls/src/stream.rs | grep .; then
        echo "FAIL: a record is copied to be opened (above); open the buffer it arrived in with open_in_place" >&2
        exit 1
    fi
    # A signature covers the bytes the object holds (DESIGN.md §11.3): a
    # certificate, a CRL and a CAS assertion are each a pki::signed::Signed,
    # signed and verified over the body bytes it keeps, with a read-only
    # body. No body is re-encoded to be signed or verified, and none is a
    # public field, outside signed.rs (test modules and comments excepted).
    # shellcheck disable=SC2046
    if awk 'FNR == 1 { in_test = 0 }
            /^#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test && !/^ *\/\// && /tbs\.to_bytes\(\)|verify_pkcs1_sha256\(&self\.tbs|pub tbs:/ {
                print FILENAME ":" FNR ":" $0 }' \
        $(find crates/*/src -name '*.rs' | sort) \
        | grep -vE '^crates/pki/src/signed\.rs:'; then
        echo "FAIL: a signed body is re-encoded or exposed (above); sign, verify and fingerprint through pki::signed::Signed" >&2
        exit 1
    fi
    # The GridFTP client has one engine on one clock (DESIGN.md §14.2):
    # no tick constant or per-stripe slot timeline beside the sim clock,
    # and no handshake-retry driver beside the engine's own redials.
    if grep -rEn '_TICKS\b|ready_at' crates/gridftp/src \
        || grep -rEn 'connect_with_retry' crates/*/src; then
        echo "FAIL: a second GridFTP clock or retry driver is back (above)" >&2
        exit 1
    fi
    # An MJS delegates over its LMJFS's key (DESIGN.md §11.2): neither
    # GRAM driver may generate a key or answer a DELEG-REQ itself; both
    # call GramResource::mjs_accept_delegation.
    if grep -En 'respond_with_key|RsaKeyPair::generate' crates/gram/src/{requestor,remote,durable}.rs; then
        echo "FAIL: a GRAM driver generates the MJS's delegation key itself (above)" >&2
        exit 1
    fi
    # Resumption is one mode of the GSS context (DESIGN.md §11.2): only
    # gssapi::context starts a resumed handshake, answers a ResumeHello
    # or tells one from a ClientHello; every transport above tls moves
    # tokens through it. perf_guard and the C1 bench probe tls directly.
    if grep -rEn 'resume_client\(|is_resume_hello\(|ServerResumeAwait|ClientResume\b' crates/*/src \
        | grep -vE '^crates/(tls/src/|gssapi/src/context\.rs:|bench/)'; then
        echo "FAIL: a transport resumes GSS contexts itself (above); use gssapi::context" >&2
        exit 1
    fi
    # A context is one round trip of the GSS types (DESIGN.md §11.2):
    # above tls, only gssapi::context drives the handshake state machines
    # or answers a hello; every driver, mill and test steps
    # InitiatorContext / AcceptorContext. perf_guard and the C1 bench
    # probe tls directly.
    if grep -rEn '\b(ClientHandshake|ServerHandshake|ServerAwaitFinished|accept_hello|server_accept_batch)\b' \
        crates/*/src crates/*/tests tests examples \
        | grep -vE '^crates/(tls/|gssapi/src/context\.rs:|bench/)'; then
        echo "FAIL: a driver runs the handshake itself (above); use gssapi::context" >&2
        exit 1
    fi
    # A server verifying stateless signed messages keeps its signer memo
    # (DESIGN.md §11.2): the Proxy Router and the hosting environment's
    # stateless branch call verify_envelope_cached, never the one-shot.
    if grep -rEn 'xmlsig::verify_envelope\(' crates/gram/src crates/ogsa/src/hosting.rs; then
        echo "FAIL: a stateless-message server verifies without its signer memo (above)" >&2
        exit 1
    fi
    # One authorization decision point (DESIGN.md §18): every relying
    # party asks ResourceGate::permits; only authz reads a chain's proxy
    # rights or restrictions to decide (pki computes them, GRIM reads its
    # own embedded policy).
    if grep -rEn '\.rights ==|\.restrictions\b' crates/*/src | grep -vE '^[^:]+:[0-9]+: *//' \
        | grep -vE '^crates/(authz/src/|pki/src/validate\.rs:|gram/src/grim\.rs:)'; then
        echo "FAIL: a relying party decides on proxy rights itself (above); use ResourceGate::permits" >&2
        exit 1
    fi
    # One reply envelope (DESIGN.md §8): only testbed::rpc::Reply builds
    # or parses a reply's `status ‖ body`; every service encodes through
    # it and every client decodes through it. Remote GRAM has one submit
    # driver, submit_job_resilient.
    if grep -rEn 'put_str\("(ok|err|none)"\)|== "ok"|"(ok|none)" =>|submit_job_remote' \
        crates/*/src crates/*/tests tests examples | grep -vE '^[^:]+:[0-9]+: *//' \
        | grep -vE '^crates/testbed/src/rpc\.rs:'; then
        echo "FAIL: a hand-written reply envelope is back (above); use testbed::rpc::Reply" >&2
        exit 1
    fi
    # One network (DESIGN.md §12.4): a GT2 byte stream is a connection
    # over testbed::net::Network whose writes are segments in the world's
    # mailboxes; the private stream transport, its loss counters and its
    # wake plumbing must not come back.
    if grep -rEn 'StreamPair|StreamStats|StreamCounters|LossStats|wake_on_readable|notify_wake' \
        crates tests examples | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a second stream transport is back (above); connect over Network" >&2
        exit 1
    fi
    # One commit record per request (DESIGN.md §10): the journal write
    # that makes an effect durable also answers its retransmits. No
    # supervisor-side reply journaling knob or record, and no service
    # keeps its own (caller, call-id) → reply table beside it.
    if { grep -rEn 'persist_replies|RPC_REPLY_TAG' crates tests examples
        grep -rEn 'HashMap<\(String, u64\), Vec<u8>>' crates/{gram,authz,services}/src
    } | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a second reply journal is back (above); commit the reply with the effect" >&2
        exit 1
    fi
    # One GT3 wire (DESIGN.md §8): every OGSA envelope is an at-most-once
    # RPC call, through WS-Routing hops too, and the perimeter is the
    # router hop. No bare-envelope transport or server, no exchange that
    # takes the next arrival as the reply, no second OGSA server task or
    # client newtype, no in-process firewall wrapper.
    if { grep -rEn 'NetworkTransport|ServeTask|RpcService|RetryTransport|FirewalledTransport|fn exchange\(' \
        crates/ogsa/src
        grep -rEn 'NetworkTransport|ServeTask|RpcService|RetryTransport|FirewalledTransport' \
            crates/*/tests tests examples
    } | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a second GT3 wire is back (above); call and serve OGSA over testbed::rpc" >&2
        exit 1
    fi
    # One RPC host (DESIGN.md §10, §12.2): every service is a CrashRecover
    # application on a CrashableServer, whose private reply cache is the
    # only RpcServer. No closure-hosted server outside testbed, and no
    # non-durable twin of a service: the CAS is DurableCas, GRAM is
    # DurableGram, the GSS acceptor is one AcceptorService, and a hosting
    # environment is served as itself. One spawn and one journal read:
    # CrashableServer::spawn builds the host and files it under its
    # endpoint's mailbox (no ServerTask, no CrashableServer::new outside
    # testbed), and a restart's one CrashRecover::recover returns the
    # commit replies from the one Journal::replay (no `fn replies(` in a
    # CrashRecover impl, no second Journal reader defined or called).
    local rust_files
    rust_files=$(find crates tests examples -name '*.rs' -not -path '*/target/*' | sort)
    if grep -rEn '\bServerTask\b' crates tests examples; then
        echo "FAIL: rpc::ServerTask is back (above); spawn the host with CrashableServer::spawn" >&2
        exit 1
    fi
    # shellcheck disable=SC2086
    if { grep -rEn 'RpcServer::new|ServerTask::new\(RpcServer|CrashableServer::new\b' \
            crates tests examples | grep -vE '^crates/testbed/src/'
        grep -rEn '\b(CasService|RemoteGram|CrashableAcceptor)\b|transport::serve\b' \
            crates tests examples
        grep -rEn '[jJ]ournal[A-Za-z0-9_]*(\(\))?\.(records|replies|len|is_empty)\(|Journal::(records|replies|len|is_empty)\b' \
            crates tests examples
        awk '
            /^ *impl(<[^>]*>)? ([A-Za-z_:]+::)?(CrashRecover for|Journal \{)/ {
                match($0, /^ */); close_line = substr($0, 1, RLENGTH) "}"; inside = 1; next
            }
            inside && $0 == close_line { inside = 0; next }
            inside && /fn (replies|records|len|is_empty|parse)\(/ { print FILENAME ":" FNR ":" $0 }
        ' $rust_files
    } | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a second way to host an RPC service or read a journal is back (above); spawn a CrashRecover app with CrashableServer::spawn and recover through Journal::replay" >&2
        exit 1
    fi
    # One storm engine (DESIGN.md §12.3): the storms share one stateless
    # leg gateway in scenarios::storm, the only place under
    # crates/integration/src that decodes a request frame itself.
    if grep -rEn 'decode_request' crates/integration/src | grep -vE '^[^:]+:[0-9]+: *//' \
        | grep -vE '^crates/integration/src/scenarios/storm\.rs:'; then
        echo "FAIL: a second storm gateway decodes requests (above); use scenarios::storm::Gateway" >&2
        exit 1
    fi
    # One chaos rig (DESIGN.md §12.3): every chaos scenario starts its
    # world from scenarios::Rig, the only place in scenarios.rs and
    # scenarios/portal.rs that arms faults, installs a tracer, arms the
    # panic dump or opens the audit log.
    if awk '
        FNR == 1 { inside = 0 }
        /^impl(<[^>]*>)? Rig(<[^>]*>)? \{$/ { inside = 1; next }
        inside && /^\}$/ { inside = 0; next }
        !inside && !/^ *\/\// && /(enable_faults|trace::install|dump_on_panic|AuditLog::new)\(/ {
            print FILENAME ":" FNR ":" $0; found = 1
        }
        END { exit !found }
    ' crates/integration/src/scenarios.rs crates/integration/src/scenarios/portal.rs; then
        echo "FAIL: a chaos scenario builds its world by hand (above); start it from scenarios::Rig" >&2
        exit 1
    fi
    # One way to set each value: the storm and striped bench bins take
    # their seed and size as flags only, never from the environment.
    if grep -rEn 'GRIDSEC_(STORM|STRIPED)_' crates/bench/src/bin | grep -vE '^[^:]+:[0-9]+: *//'; then
        echo "FAIL: a bench bin reads a storm knob from the environment (above); take it as a flag" >&2
        exit 1
    fi
    # A GridFTP server's digests are the ones its filesystem stores beside
    # each file (DESIGN.md §10): every version of a file is hashed once,
    # however often it is served or striped.
    if grep -n 'sha256(' crates/gridftp/src/poll.rs; then
        echo "FAIL: the GridFTP server hashes file contents itself (above); use SimOs::file_digest" >&2
        exit 1
    fi
    # One trust epoch per server (DESIGN.md §11.7): every cache of
    # something derived from trust state files each entry under the
    # (trust, CRL) epoch it was filled in, so installing CRLs is an
    # assignment, or a call of the one owner's `set_crls`. A `set_crls`
    # that clears, rebuilds or drops a table is a hand-kept invalidation
    # list coming back; a session-cache or
    # validator field must be listed in the test that checks the rule.
    local sources epoch_test=crates/integration/tests/trust_epoch.rs
    sources=$(find crates/*/src -name '*.rs' | sort)
    # Every kill point is a row of DESIGN.md §10's table, which the
    # kill-point sweep reads back: a `fires("…")`, `kill("…")` or
    # `kill_point("…")` literal in non-test code under crates/*/src
    # (before the file's first #[cfg(test)], outside comments) must be
    # listed there.
    local table hit points=0 unlisted_points=0
    table=$(awk '/^### Kill points/ { on = 1; next } on && /^#/ { exit } on && /^\|/' DESIGN.md)
    # shellcheck disable=SC2086
    while IFS= read -r hit; do
        points=$((points + 1))
        if ! grep -qF "\`${hit##*:}\`" <<< "$table"; then
            echo "FAIL: $hit is a kill point missing from DESIGN.md §10's table" >&2
            unlisted_points=1
        fi
    done < <(awk '
        FNR == 1 { live = 1 }
        /^ *#\[cfg\(test\)\]/ { live = 0 }
        !live || /^ *\/\// { next }
        {
            code = $0; sub(/[ \t]\/\/.*$/, "", code)
            while (match(code, /(^|[^A-Za-z0-9_])(fires|kill|kill_point)\("[^"]+"\)/)) {
                point = substr(code, RSTART, RLENGTH); code = substr(code, RSTART + RLENGTH)
                sub(/^[^"]*"/, "", point); sub(/"\)$/, "", point)
                print FILENAME ":" FNR ":" point
            }
        }
    ' $sources)
    if [ "$points" -eq 0 ]; then
        echo "FAIL: found no kill point in crates/*/src — the gate is vacuous" >&2
        exit 1
    fi
    [ "$unlisted_points" -eq 0 ] || exit 1
    # shellcheck disable=SC2086
    if awk '
        /fn set_crls\(/ && !/^ *\/\// {
            match($0, /^ */); close_line = substr($0, 1, RLENGTH) "}"; inside = 1; next
        }
        inside && $0 == close_line { inside = 0; next }
        inside && !/^ *(\/\/.*)?$/ && !/^ *self(\.[a-z_]+)+( = crls|\.set_crls\(crls\));$/ {
            print FILENAME ":" FNR ":" $0; found = 1
        }
        END { exit !found }
    ' $sources; then
        echo "FAIL: a set_crls does more than assign the store (above)" >&2
        exit 1
    fi
    local entry fields=0 unlisted=0
    # shellcheck disable=SC2086
    while read -r entry; do
        fields=$((fields + 1))
        if ! grep -qF "\"$entry\"" "$epoch_test"; then
            echo "FAIL: $entry caches trust-derived state but $epoch_test does not list it" >&2
            unlisted=1
        fi
    done < <(awk '
        /^ *(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+.*\{$/ {
            owner = $0; sub(/^ *(pub(\([a-z]+\))? )?struct /, "", owner)
            sub(/[^A-Za-z0-9_].*/, "", owner)
            match($0, /^ */); close_line = substr($0, 1, RLENGTH) "}"; next
        }
        owner != "" && $0 == close_line { owner = ""; next }
        owner != "" && /^ *(pub(\([a-z]+\))? )?[a-z0-9_]+: [^&]*(ServerSessionCache|ClientSessionCache|CachedValidator)/ {
            field = $0; sub(/^ *(pub(\([a-z]+\))? )?/, "", field); sub(/:.*/, "", field)
            file = FILENAME; sub(/^crates\//, "", file)
            print file ": " owner "." field
        }
    ' $sources)
    if [ "$fields" -eq 0 ]; then
        echo "FAIL: found no session-cache or validator field — the gate is vacuous" >&2
        exit 1
    fi
    [ "$unlisted" -eq 0 ] || exit 1
}

# Every `pub` item has a caller outside its crate, or a reason in
# scripts/pub_audit.allow (DESIGN.md §19). Name-level and offline; the
# compiler half is `#![warn(unreachable_pub)]` under clippy -D warnings.
stage_pub_audit() {
    scripts/pub_audit.sh
}

stage_fmt() {
    cargo fmt --all --check
}

stage_build() {
    cargo build --release --offline
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

# The whole suite in the debug profile, where every constructed prime is
# cross-checked by Miller–Rabin off the caller's stream; then the two
# tests that hold the generator's output, once more under --release,
# where that check is compiled out: both profiles must mint one key.
stage_test() {
    cargo test -q --offline
    cargo test -q --offline --release -p gridsec-bignum --test provable_primes
    cargo test -q --offline --release -p gridsec-crypto --test golden_key
}

stage_examples() {
    for example in quickstart credential_bridging gram_job vo_collaboration; do
        echo "-- example $example"
        cargo run -q --offline --release -p gridsec-gsi --example "$example" > /dev/null
    done
}

# Two fresh processes, same seed -> byte-identical transcript + trace.
stage_chaos() {
    for run in 1 2; do
        GRIDSEC_CHAOS_SEED="$chaos_seed" \
        GRIDSEC_CHAOS_TRANSCRIPT="$tdir/transcript.$run" \
        GRIDSEC_CHAOS_TRACE="$tdir/trace.$run" \
            cargo test -q --offline -p gridsec-integration --test chaos -- \
            same_seed_reproduces_byte_identical > /dev/null
    done
    if ! cmp -s "$tdir/transcript.1" "$tdir/transcript.2"; then
        echo "FAIL: chaos transcripts differ across runs with seed $chaos_seed" >&2
        diff "$tdir/transcript.1" "$tdir/transcript.2" | head -20 >&2 || true
        exit 1
    fi
    if ! cmp -s "$tdir/trace.1" "$tdir/trace.2"; then
        echo "FAIL: chaos trace dumps differ across runs with seed $chaos_seed" >&2
        diff "$tdir/trace.1" "$tdir/trace.2" | head -20 >&2 || true
        exit 1
    fi
    local lines tlines
    lines=$(wc -l < "$tdir/transcript.1")
    tlines=$(wc -l < "$tdir/trace.1")
    echo "ok: $lines transcript + $tlines trace lines identical across two runs (seed $chaos_seed)"
}

# Same two-process gate, with every service additionally running under a
# seeded CrashPlan (kills at injection points mid-request + journal
# recovery). The transcript carries crash/restart events; both it and
# the trace dump must still be pure functions of the seed.
stage_crash_chaos() {
    for run in 1 2; do
        GRIDSEC_CHAOS_SEED="$chaos_seed" \
        GRIDSEC_CRASH_TRANSCRIPT="$tdir/crash-transcript.$run" \
        GRIDSEC_CRASH_TRACE="$tdir/crash-trace.$run" \
            cargo test -q --offline -p gridsec-integration --test chaos -- \
            crash_chaos_same_seed_is_byte_identical > /dev/null
    done
    if ! cmp -s "$tdir/crash-transcript.1" "$tdir/crash-transcript.2"; then
        echo "FAIL: crash-chaos transcripts differ across runs with seed $chaos_seed" >&2
        diff "$tdir/crash-transcript.1" "$tdir/crash-transcript.2" | head -20 >&2 || true
        exit 1
    fi
    if ! cmp -s "$tdir/crash-trace.1" "$tdir/crash-trace.2"; then
        echo "FAIL: crash-chaos trace dumps differ across runs with seed $chaos_seed" >&2
        diff "$tdir/crash-trace.1" "$tdir/crash-trace.2" | head -20 >&2 || true
        exit 1
    fi
    if ! grep -q "crash svc=" "$tdir/crash-transcript.1"; then
        echo "FAIL: crash stage drew no crashes — the gate is vacuous" >&2
        exit 1
    fi
    local clines
    clines=$(wc -l < "$tdir/crash-transcript.1")
    echo "ok: $clines crash-transcript lines identical across two runs (seed $chaos_seed)"
}

# The striped GridFTP scenario under lossy streams, mid-stripe kills and
# the AIMD congestion controller: transcript (including the controller's
# decision log) and trace must be byte-identical across two processes.
stage_striped_chaos() {
    for run in 1 2; do
        GRIDSEC_CHAOS_SEED="$chaos_seed" \
        GRIDSEC_STRIPED_TRANSCRIPT="$tdir/striped-transcript.$run" \
        GRIDSEC_STRIPED_TRACE="$tdir/striped-trace.$run" \
            cargo test -q --offline -p gridsec-integration --test chaos -- \
            figure5_striped_same_seed_is_byte_identical > /dev/null
    done
    if ! cmp -s "$tdir/striped-transcript.1" "$tdir/striped-transcript.2"; then
        echo "FAIL: striped transcripts differ across runs with seed $chaos_seed" >&2
        diff "$tdir/striped-transcript.1" "$tdir/striped-transcript.2" | head -20 >&2 || true
        exit 1
    fi
    if ! cmp -s "$tdir/striped-trace.1" "$tdir/striped-trace.2"; then
        echo "FAIL: striped trace dumps differ across runs with seed $chaos_seed" >&2
        diff "$tdir/striped-trace.1" "$tdir/striped-trace.2" | head -20 >&2 || true
        exit 1
    fi
    if ! grep -q "fig5s aimd" "$tdir/striped-transcript.1"; then
        echo "FAIL: striped transcript carries no AIMD decisions — gate is vacuous" >&2
        exit 1
    fi
    local slines
    slines=$(wc -l < "$tdir/striped-transcript.1")
    echo "ok: $slines striped-transcript lines identical across two runs (seed $chaos_seed)"
}

# Credential-lifetime chaos: the expiry-storm scenario (hundreds of
# staggered-lifetime principals, seeded issuer skew and near-zero
# lifetimes, renewal waves batched through the handshake mill, corrupt
# openers) must render its metrics byte-identically across two fresh
# processes, and the portal armed-kill flow (client killed at
# cred.store / cred.reacquire / cred.renew) must recover with
# exactly-once proxy issuance.
stage_cred_chaos() {
    for run in 1 2; do
        GRIDSEC_CHAOS_SEED="$chaos_seed" \
        GRIDSEC_EXPIRY_RENDER="$tdir/expiry-render.$run" \
            cargo test -q --offline -p gridsec-integration --test chaos -- \
            expiry_storm_same_seed_is_byte_identical > /dev/null
    done
    if ! cmp -s "$tdir/expiry-render.1" "$tdir/expiry-render.2"; then
        echo "FAIL: expiry-storm renders differ across runs with seed $chaos_seed" >&2
        diff "$tdir/expiry-render.1" "$tdir/expiry-render.2" | head -20 >&2 || true
        exit 1
    fi
    # The storm must actually exercise the lifetime failure modes —
    # a run with no renewals or no fail-closed principals gates nothing.
    if ! grep -q "^renewal waves=" "$tdir/expiry-render.1" || \
       grep -Eq " renewals=0( |$)" "$tdir/expiry-render.1" || \
       grep -Eq " failed_closed=0( |$)" "$tdir/expiry-render.1" || \
       grep -Eq " stillborn=0( |$)" "$tdir/expiry-render.1"; then
        echo "FAIL: expiry-storm render is vacuous (missing renewals or failure modes):" >&2
        head -3 "$tdir/expiry-render.1" >&2
        exit 1
    fi
    GRIDSEC_CHAOS_SEED="$chaos_seed" \
        cargo test -q --offline -p gridsec-integration --test chaos -- \
        portal_recovers_from_armed_credential_kills > /dev/null
    echo "ok: $(head -1 "$tdir/expiry-render.1") (byte-identical across two runs; portal armed kills recovered)"
}

# Deep only: sweep a fixed matrix of crash seeds — each must complete
# every flow (recovery works wherever the kills land) and replay
# byte-identically within the process (asserted by the test itself).
# The same matrix drives the credential-lifetime suite: the portal must
# recover from armed kills and the expiry storm must replay
# byte-identically wherever the renewal/crash schedules land.
stage_deep_matrix() {
    for s in 0xC4A05EED 0x1 0xDEADBEEF 0xA5A5A5A5 0x7777777777777777; do
        echo "-- crash seed $s"
        GRIDSEC_CHAOS_SEED="$s" \
            cargo test -q --offline -p gridsec-integration --test chaos -- \
            all_flows_complete_under_combined_crash_and_loss \
            crash_chaos_same_seed_is_byte_identical \
            portal_recovers_from_armed_credential_kills \
            expiry_storm_same_seed_is_byte_identical > /dev/null
    done
    # The same matrix sweeps the crypto-real login storm: whatever the
    # seed does to credential assignment, stagger, and wave shapes, the
    # metrics must stay byte-identical across two fresh processes.
    for s in 0xC4A05EED 0x1 0xDEADBEEF 0xA5A5A5A5 0x7777777777777777; do
        echo "-- crypto_storm seed $s"
        for run in 1 2; do
            GRIDSEC_BENCH_DIR="$tdir" \
                cargo run -q --offline --release -p gridsec-bench --bin crypto_storm -- \
                --seed "$s" --principals 800 --metrics-out "$tdir/cstorm-deep.$run" > /dev/null
        done
        if ! cmp -s "$tdir/cstorm-deep.1" "$tdir/cstorm-deep.2"; then
            echo "FAIL: crypto_storm metrics differ across runs with seed $s" >&2
            diff "$tdir/cstorm-deep.1" "$tdir/cstorm-deep.2" | head -20 >&2 || true
            exit 1
        fi
    done
    echo "ok: crash seed matrix complete (incl. credential-lifetime suite + crypto_storm)"
}

# Offline micro-gate on the perf claims (DESIGN.md §13.3, §14):
# Montgomery modexp beats the classic window reference, the resumed
# handshake beats the full handshake, a HandshakeMill wave on a warm
# verdict cache is not slower than a pool-less per-session acceptor
# (a wave is a loop over the single acceptance; both arms timed round
# by round), and four stripes beat one stream >=1.5x at 5% loss in sim
# seconds on a WAN with latency (deterministic); a
# 256-bit modexp costs <=0.16x a 512-bit one and a proven 256-bit prime
# <=40 modexps (DESIGN.md §11.4); a 512-bit key is exactly 2.000 calls
# of generate_prime, counted by stream replay (DESIGN.md §11.5); a 16-job
# GRAM sign-on runs 1 full step-7 handshake, generates 1 delegation key and
# walks its request chain once (claims 12-14, DESIGN.md §11.4); the ChaCha20
# keystream and the SHA-256 schedule run wide (claims 15, 16, DESIGN.md §17);
# a GridFTP server hashes each file version once (claim 17, DESIGN.md §10);
# a warm mill wave walks no chain (claim 18, DESIGN.md §11.4). Every claim
# prints measured ratio, threshold and source BENCH json, pass or fail.
stage_perf_guard() {
    cargo run -q --offline --release -p gridsec-bench --bin perf_guard
}

# Reduced-scale run of the discrete-event VO storm (the bench bin
# defaults to 10^5 principals; see bench-results/after/BENCH_vo_storm.json
# for the full-scale record). Every metric except wall time must be a
# pure function of the seed across two fresh processes, and every flow
# must reach a verdict.
stage_vo_storm() {
    for run in 1 2; do
        GRIDSEC_BENCH_DIR="$tdir" \
            cargo run -q --offline --release -p gridsec-bench --bin vo_storm -- \
            --principals "${GRIDSEC_STORM_PRINCIPALS:-2000}" \
            --metrics-out "$tdir/storm.$run" > /dev/null
    done
    if ! cmp -s "$tdir/storm.1" "$tdir/storm.2"; then
        echo "FAIL: vo_storm metrics differ across two runs of the same seed" >&2
        diff "$tdir/storm.1" "$tdir/storm.2" | head -20 >&2 || true
        exit 1
    fi
    if ! head -1 "$tdir/storm.1" | grep -q " failed=0 "; then
        echo "FAIL: vo_storm flows exhausted their retry budget:" >&2
        head -1 "$tdir/storm.1" >&2
        exit 1
    fi
    echo "ok: $(head -1 "$tdir/storm.1") (byte-identical across two runs)"
}

# Reduced-scale run of the pooled-handshake storm (the bench bin
# defaults to 10^4 sessions; bench-results/after/BENCH_handshake_storm.json
# records the full-scale run — the timing claim itself is gated by
# perf_guard). Every metric except wall time must be a pure function of
# the seed across two fresh processes.
stage_handshake_storm() {
    for run in 1 2; do
        GRIDSEC_BENCH_DIR="$tdir" \
            cargo run -q --offline --release -p gridsec-bench --bin handshake_storm -- \
            --sessions "${GRIDSEC_STORM_SESSIONS:-400}" --clients 16 --wave 64 \
            --baseline-sessions 100 --metrics-out "$tdir/hstorm.$run" > /dev/null
    done
    if ! cmp -s "$tdir/hstorm.1" "$tdir/hstorm.2"; then
        echo "FAIL: handshake_storm metrics differ across two runs of the same seed" >&2
        diff "$tdir/hstorm.1" "$tdir/hstorm.2" | head -20 >&2 || true
        exit 1
    fi
    if ! grep -q "^counter storm.completed = " "$tdir/hstorm.1" || \
       grep -q "^counter storm.completed = 0$" "$tdir/hstorm.1"; then
        echo "FAIL: handshake_storm completed no end-to-end sessions:" >&2
        cat "$tdir/hstorm.1" >&2
        exit 1
    fi
    echo "ok: $(head -1 "$tdir/hstorm.1") (byte-identical across two runs)"
}

# Reduced-scale run of the striped-transfer goodput grid (the bench bin
# defaults to 32 KiB; bench-results/after/BENCH_striped_xfer.json records
# the full-scale run — the >=1.5x striping claim itself is gated by
# perf_guard). The grid runs on the world's sim clock, a pure function of
# the seed, so the entire metrics render must be byte-identical across
# two fresh processes.
stage_striped_xfer() {
    for run in 1 2; do
        GRIDSEC_BENCH_DIR="$tdir" \
            cargo run -q --offline --release -p gridsec-bench --bin striped_xfer -- \
            --bytes "${GRIDSEC_STRIPED_BYTES:-8192}" \
            --metrics-out "$tdir/striped.$run" > /dev/null
    done
    if ! cmp -s "$tdir/striped.1" "$tdir/striped.2"; then
        echo "FAIL: striped_xfer metrics differ across two runs of the same seed" >&2
        diff "$tdir/striped.1" "$tdir/striped.2" | head -20 >&2 || true
        exit 1
    fi
    if ! grep -q "^counter striped.l050.s4.goodput_bps = " "$tdir/striped.1"; then
        echo "FAIL: striped_xfer grid is missing the 5%-loss 4-stripe cell:" >&2
        cat "$tdir/striped.1" >&2
        exit 1
    fi
    echo "ok: $(head -1 "$tdir/striped.1") (byte-identical across two runs)"
}

# Reduced-scale run of the crypto-real login storm (the bench bin
# defaults to 5x10^5 principals; bench-results/after/BENCH_crypto_storm.json
# records the full-scale run — the mill-batched-poll and storm-scale
# claims themselves are gated by perf_guard). Every principal performs a
# real handshake, so every metric except wall time must be a pure
# function of the seed across two fresh processes, and no trusted
# credential may be refused.
stage_crypto_storm() {
    for run in 1 2; do
        GRIDSEC_BENCH_DIR="$tdir" \
            cargo run -q --offline --release -p gridsec-bench --bin crypto_storm -- \
            --principals "${GRIDSEC_CRYPTO_STORM_PRINCIPALS:-1500}" \
            --metrics-out "$tdir/cstorm.$run" > /dev/null
    done
    if ! cmp -s "$tdir/cstorm.1" "$tdir/cstorm.2"; then
        echo "FAIL: crypto_storm metrics differ across two runs of the same seed" >&2
        diff "$tdir/cstorm.1" "$tdir/cstorm.2" | head -20 >&2 || true
        exit 1
    fi
    if grep -q "^counter cstorm.flows.rejected_credential = " "$tdir/cstorm.1"; then
        echo "FAIL: crypto_storm refused a trusted credential:" >&2
        head -4 "$tdir/cstorm.1" >&2
        exit 1
    fi
    if ! grep -q "^counter cstorm.flows.established = " "$tdir/cstorm.1" || \
       grep -q "^counter cstorm.gw.waves = 0$" "$tdir/cstorm.1"; then
        echo "FAIL: crypto_storm established nothing or never batched a wave:" >&2
        cat "$tdir/cstorm.1" >&2
        exit 1
    fi
    echo "ok: $(head -1 "$tdir/cstorm.1") (byte-identical across two runs)"
}

# One slice per segment of every gridbench workload: the
# protected-message byte path (ogsa_request), the AEAD record path
# (bulk_xfer), the prime search under every delegated proxy
# (gram_submit), the 256-bit modexp under every handshake
# (establish_storm) and the scheduler/network/RPC message path
# (vo_flows) (BENCHMARK.json; the numbers themselves are the
# benchmark driver's business). The last
# stdout line is the result: every output digest must have matched and
# no op may have failed. Building it also proves the frozen `benchmark/`
# crate still compiles against the workspace's public signatures.
stage_gridbench_smoke() {
    local w last
    for w in ogsa_request bulk_xfer gram_submit establish_storm vo_flows; do
        if ! bash benchmark/run.sh --workload "$w" --seed 1 --slices 1 \
            > "$tdir/gridbench.$w.out"; then
            echo "FAIL: gridbench $w exited nonzero:" >&2
            tail -n 3 "$tdir/gridbench.$w.out" >&2
            exit 1
        fi
        last=$(tail -n 1 "$tdir/gridbench.$w.out")
        if ! grep -q '"correct": true' <<< "$last" || \
           ! grep -Eq '"failed": 0[,}]' <<< "$last"; then
            echo "FAIL: gridbench $w did not report correct/failed=0:" >&2
            echo "${last:0:200}" >&2
            exit 1
        fi
        echo "ok: gridbench $w ${last%%, \"metrics\"*}}"
    done
}

# Replay the chaos flows from the pinned seed, regenerate the
# flow-metrics tables, and require the committed EXPERIMENTS.md to
# already match — deterministic metrics mean any diff is real drift.
stage_drift() {
    rm -rf target/bench-smoke
    GRIDSEC_REGEN_SKIP_BENCH=1 GRIDSEC_BENCH_DIR=target/bench-smoke \
        scripts/regen_experiments.sh > /dev/null
    if ! git diff --exit-code -- EXPERIMENTS.md; then
        echo "FAIL: EXPERIMENTS.md flow metrics drifted from the pinned seed;" >&2
        echo "      scripts/repin.sh re-records them beside the golden pins and" >&2
        echo "      prints what moved; commit the result if the move is meant" >&2
        exit 1
    fi
    echo "ok: EXPERIMENTS.md matches regenerated flow metrics"
}

# ---------------------------------------------------------------------------
# Stage runner
# ---------------------------------------------------------------------------

ALL_STAGES="grep_guard pub_audit fmt build clippy test examples chaos crash_chaos \
striped_chaos cred_chaos perf_guard vo_storm handshake_storm striped_xfer \
crypto_storm gridbench_smoke drift"
if [ "${GRIDSEC_VERIFY_DEEP:-0}" = "1" ]; then
    ALL_STAGES="$ALL_STAGES deep_matrix"
fi

selected=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --stage)
            [ "$#" -ge 2 ] || { echo "--stage needs a name" >&2; exit 2; }
            selected+=("$2")
            shift 2
            ;;
        --list)
            for s in $ALL_STAGES; do echo "$s"; done
            exit 0
            ;;
        *)
            echo "unknown argument: $1 (try --list)" >&2
            exit 2
            ;;
    esac
done
if [ "${#selected[@]}" -eq 0 ]; then
    read -ra selected <<< "$ALL_STAGES"
fi
for s in "${selected[@]}"; do
    case " $ALL_STAGES " in
        *" $s "*) ;;
        *) echo "unknown stage: $s (try --list)" >&2; exit 2 ;;
    esac
done

{
    echo "### verify.sh stage timings"
    echo ""
    echo "| stage | wall (s) |"
    echo "|---|---|"
} > "$timings"

for s in "${selected[@]}"; do
    echo "== stage: $s =="
    t0=$(date +%s)
    "stage_$s"
    t1=$(date +%s)
    echo "| $s | $((t1 - t0)) |" >> "$timings"
    echo "-- stage $s done in $((t1 - t0))s"
done

echo ""
cat "$timings"
echo ""
echo "verify.sh: all selected stages passed ($timings)"
