//! Integration suite for the multi-tenant kernel service: full TCP
//! round trips through [`dpvk::server::Client`] against an in-process
//! [`dpvk::server::Server`], covering correctness, tenant isolation,
//! admission control / load shedding, and the typed error surface.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dpvk::server::protocol::{read_frame, write_frame};
use dpvk::server::{
    Client, LaunchSpec, Response, Server, ServerConfig, ServerHandle, WireBuffer, WireParam,
};
use dpvk::vm::MachineModel;

/// In-place `data[i] *= 3` over `n` u32 elements.
const TRIPLE: &str = r#"
.kernel triple (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}
"#;

/// `out[i] = a * i + b` — a second kernel so two tenants can own
/// different entry points.
const AFFINE: &str = r#"
.kernel affine (.param .u64 out, .param .u32 a, .param .u32 b, .param .u32 n) {
  .reg .u32 %r<5>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  ld.param.u32 %r2, [a];
  ld.param.u32 %r3, [b];
  mad.lo.u32 %r4, %r2, %r0, %r3;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r4;
done:
  ret;
}
"#;

/// A kernel that never terminates: the only block branches to itself.
/// Its launches end only by deadline kill.
const SPIN: &str = r#"
.kernel spin (.param .u32 n) {
  .reg .u32 %r<1>;
entry:
  bra entry;
}
"#;

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::bind(MachineModel::sandybridge_sse(), 8 << 20, config)
        .expect("bind")
        .start()
        .expect("start")
}

fn u32s_to_bytes(vals: impl IntoIterator<Item = u32>) -> Vec<u8> {
    vals.into_iter().flat_map(u32::to_le_bytes).collect()
}

fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
}

fn triple_spec(tenant: &str, n: u32) -> LaunchSpec {
    LaunchSpec {
        tenant: tenant.into(),
        kernel: "triple".into(),
        grid: [n.div_ceil(64), 1, 1],
        block: [64, 1, 1],
        deadline_ms: 0,
        buffers: vec![WireBuffer { bytes: u32s_to_bytes(0..n), read_back: true }],
        params: vec![WireParam::Buffer(0), WireParam::U32(n)],
    }
}

fn expect_error(resp: &Response, want_code: &str) -> (bool, u32) {
    match resp {
        Response::Error { code, retryable, attempts, .. } => {
            assert_eq!(code, want_code, "unexpected error code in {resp:?}");
            (*retryable, *attempts)
        }
        other => panic!("expected `{want_code}` error, got {other:?}"),
    }
}

#[test]
fn register_launch_read_back_round_trip() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.register("acme", TRIPLE).unwrap(), Response::Registered);
    // Re-registering your own module is idempotent, not a conflict.
    assert_eq!(client.register("acme", TRIPLE).unwrap(), Response::Registered);

    let n = 1000u32;
    match client.launch(triple_spec("acme", n)).unwrap() {
        Response::Launched { attempts, degraded, outputs } => {
            assert_eq!(attempts, 1);
            assert!(!degraded);
            assert_eq!(outputs.len(), 1);
            let out = bytes_to_u32s(&outputs[0]);
            assert_eq!(out.len(), n as usize);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 3 * i as u32, "element {i}");
            }
        }
        other => panic!("expected Launched, got {other:?}"),
    }

    let stats = client.stats("acme").unwrap();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert!(stats.exec_ns > 0, "completed launch must charge exec time");
    // Device-heap observability rides on the same response: the launch
    // above allocated real device memory, so the high-water mark is up.
    assert!(stats.heap_high_water > 0, "launch must move the heap high-water mark");
    handle.shutdown();
}

/// Ill-typed PTX — f32 arithmetic on u32 registers — is refused at
/// `Register` with the typed `ptx` error.
#[test]
fn ill_typed_ptx_is_refused_at_register() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let src =
        ".kernel ill (.param .u64 data) { .reg .u32 %r<3>; entry: add.f32 %r0, %r1, %r2; ret; }";
    let resp = client.register("acme", src).unwrap();
    let (retryable, _) = expect_error(&resp, "ptx");
    assert!(!retryable);
    handle.shutdown();
}

/// A modifier dpvk does not implement (`add.sat`) is refused at
/// `Register` with the typed `ptx` error naming it.
#[test]
fn unimplemented_modifier_is_refused_at_register() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let src = ".kernel sat (.param .u64 data) { .reg .s32 %r<3>; entry: add.sat.s32 %r0, %r1, %r2; ret; }";
    let resp = client.register("acme", src).unwrap();
    let (retryable, _) = expect_error(&resp, "ptx");
    assert!(!retryable);
    match resp {
        Response::Error { message, .. } => assert!(message.contains("`.sat`"), "{message}"),
        other => panic!("expected an error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn repeated_launches_reuse_pooled_buffers_and_stay_correct() {
    // A long-lived serving process must not leak device heap per request
    // (the device allocator is a bump allocator); correctness across
    // many recycled launches is the observable guarantee here.
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.register("acme", TRIPLE).unwrap();

    let n = 256u32;
    let mut digests = Vec::new();
    for _ in 0..20 {
        match client.launch(triple_spec("acme", n)).unwrap() {
            Response::Launched { outputs, .. } => {
                digests.push(common::digest_bytes(&outputs[0]));
            }
            other => panic!("expected Launched, got {other:?}"),
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "identical launches must produce identical outputs"
    );
    handle.shutdown();
}

#[test]
fn tenant_isolation_denied_not_found_and_name_conflict() {
    let handle = start_server(ServerConfig::default());
    let mut alice = Client::connect(handle.addr()).unwrap();
    let mut bob = Client::connect(handle.addr()).unwrap();

    assert_eq!(alice.register("alice", TRIPLE).unwrap(), Response::Registered);
    assert_eq!(bob.register("bob", AFFINE).unwrap(), Response::Registered);

    // Bob may not launch Alice's kernel...
    let (retryable, _) = expect_error(&bob.launch(triple_spec("bob", 64)).unwrap(), "denied");
    assert!(!retryable);
    // ...nor register a module that would shadow it.
    expect_error(&bob.register("bob", TRIPLE).unwrap(), "name_conflict");

    // An unregistered kernel is not_found, not denied.
    let mut spec = triple_spec("bob", 64);
    spec.kernel = "nonexistent".into();
    expect_error(&bob.launch(spec).unwrap(), "not_found");

    // The conflict must not have clobbered Alice's kernel.
    match alice.launch(triple_spec("alice", 64)).unwrap() {
        Response::Launched { outputs, .. } => {
            assert_eq!(bytes_to_u32s(&outputs[0])[3], 9);
        }
        other => panic!("expected Launched, got {other:?}"),
    }

    // Bob's own kernel still works: isolation failures are per-request.
    let n = 64u32;
    let resp = bob
        .launch(LaunchSpec {
            tenant: "bob".into(),
            kernel: "affine".into(),
            grid: [1, 1, 1],
            block: [64, 1, 1],
            deadline_ms: 0,
            buffers: vec![WireBuffer { bytes: vec![0; n as usize * 4], read_back: true }],
            params: vec![
                WireParam::Buffer(0),
                WireParam::U32(5),
                WireParam::U32(7),
                WireParam::U32(n),
            ],
        })
        .unwrap();
    match resp {
        Response::Launched { outputs, .. } => {
            let out = bytes_to_u32s(&outputs[0]);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 5 * i as u32 + 7);
            }
        }
        other => panic!("expected Launched, got {other:?}"),
    }

    let bob_stats = bob.stats("bob").unwrap();
    assert_eq!(bob_stats.failed, 2, "denied + not_found both count as failures");
    assert_eq!(bob_stats.completed, 1);
    handle.shutdown();
}

#[test]
fn bad_source_and_bad_buffer_index_surface_typed_errors() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    expect_error(&client.register("acme", ".kernel oops {").unwrap(), "ptx");

    client.register("acme", TRIPLE).unwrap();
    let mut spec = triple_spec("acme", 64);
    spec.params[0] = WireParam::Buffer(5);
    let (retryable, attempts) = expect_error(&client.launch(spec).unwrap(), "bad_launch");
    assert!(!retryable);
    assert_eq!(attempts, 0, "launch must be rejected before any attempt");
    handle.shutdown();
}

#[test]
fn malformed_frames_get_proto_errors_not_hangups() {
    let handle = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // An unknown request tag.
    write_frame(&mut stream, &[0xEE]).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("server hung up");
    expect_error(&Response::decode(&payload).unwrap(), "proto");

    // A truncated Register payload on the same connection: the server
    // answered the previous garbage and keeps serving.
    write_frame(&mut stream, &[1, 0xFF]).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("server hung up");
    expect_error(&Response::decode(&payload).unwrap(), "proto");

    // A frame that *claims* to be larger than MAX_FRAME is refused at
    // the framing layer; the connection closes rather than allocating.
    let len = (dpvk::server::protocol::MAX_FRAME + 1).to_le_bytes();
    stream.write_all(&len).unwrap();
    assert!(read_frame(&mut stream).unwrap().is_none(), "connection should close");
    handle.shutdown();
}

#[test]
fn token_bucket_sheds_burst_with_retry_hint() {
    let config =
        ServerConfig { tenant_rate_per_sec: 0.5, tenant_burst: 2.0, ..ServerConfig::default() };
    let handle = start_server(config);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.register("bursty", TRIPLE).unwrap();

    // The burst allows two launches; the third must be shed with a
    // positive retry-after hint derived from the refill rate.
    for _ in 0..2 {
        match client.launch(triple_spec("bursty", 64)).unwrap() {
            Response::Launched { .. } => {}
            other => panic!("expected Launched within burst, got {other:?}"),
        }
    }
    match client.launch(triple_spec("bursty", 64)).unwrap() {
        Response::Overloaded { retry_after_ms } => {
            assert!(retry_after_ms > 0, "hint must be positive");
            assert!(retry_after_ms <= 60_000, "hint must be clamped");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    let stats = client.stats("bursty").unwrap();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.shed, 1);

    // A *different* tenant is unaffected by the noisy one's bucket.
    let mut other = Client::connect(handle.addr()).unwrap();
    other.register("quiet", AFFINE).unwrap();
    let resp = other
        .launch(LaunchSpec {
            tenant: "quiet".into(),
            kernel: "affine".into(),
            grid: [1, 1, 1],
            block: [32, 1, 1],
            deadline_ms: 0,
            buffers: vec![WireBuffer { bytes: vec![0; 128], read_back: true }],
            params: vec![
                WireParam::Buffer(0),
                WireParam::U32(1),
                WireParam::U32(0),
                WireParam::U32(32),
            ],
        })
        .unwrap();
    assert!(matches!(resp, Response::Launched { .. }), "quiet tenant shed: {resp:?}");
    handle.shutdown();
}

#[test]
fn saturated_capacity_sheds_instead_of_queueing() {
    // One admission slot, no retries, no degradation: a spin launch
    // occupies the whole gate until its deadline kills it, and every
    // launch arriving meanwhile must be answered Overloaded quickly.
    let config = ServerConfig {
        admission_capacity: Some(1),
        max_retries: 0,
        degrade_to_scalar: false,
        shed_retry_ms: 7,
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.register("hog", SPIN).unwrap();
    setup.register("victim", TRIPLE).unwrap();

    let hog = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        // The spin launch itself competes for the single slot; retry
        // until admitted so the test deterministically saturates it.
        loop {
            let resp = client
                .launch(LaunchSpec {
                    tenant: "hog".into(),
                    kernel: "spin".into(),
                    grid: [1, 1, 1],
                    block: [8, 1, 1],
                    deadline_ms: 1_500,
                    buffers: vec![],
                    params: vec![WireParam::U32(0)],
                })
                .unwrap();
            if !matches!(resp, Response::Overloaded { .. }) {
                return resp;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // Wait until the hog is actually in flight (admitted past the gate)
    // before probing, so a shed observation is deterministic.
    let t0 = Instant::now();
    while setup.stats("hog").unwrap().admitted == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "hog never got admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // While the hog holds the only slot, the victim's launch must be
    // answered Overloaded quickly (no queueing behind the spin).
    let mut client = Client::connect(addr).unwrap();
    let sent = Instant::now();
    let observed_shed = match client.launch(triple_spec("victim", 64)).unwrap() {
        Response::Overloaded { retry_after_ms } => Some((retry_after_ms, sent.elapsed())),
        Response::Launched { .. } => None,
        other => panic!("unexpected response: {other:?}"),
    };
    let (retry_after_ms, latency) = observed_shed.expect("never saw Overloaded under saturation");
    assert_eq!(retry_after_ms, 7, "capacity sheds use the configured hint");
    assert!(latency < Duration::from_millis(500), "shed took {latency:?}, expected fast refusal");

    // The hog's spin launch ends with a typed, retryable deadline error
    // after exactly one attempt (retries disabled).
    let (retryable, attempts) = expect_error(&hog.join().unwrap(), "deadline");
    assert!(retryable, "deadline errors are transient and marked retryable");
    assert_eq!(attempts, 1);

    // Once the slot frees, the victim is served again.
    let t0 = Instant::now();
    loop {
        match client.launch(triple_spec("victim", 64)).unwrap() {
            Response::Launched { .. } => break,
            Response::Overloaded { .. } if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("service did not recover after saturation: {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn closed_loop_clients_at_twice_capacity_shed_and_admitted_work_completes() {
    // Healthy work this time: twice as many closed-loop clients as
    // admission slots, every launch one that completes. A gate that
    // queued would answer every request `Launched`; this one must refuse
    // some, and everything it admits must complete without an error.
    const CAPACITY: usize = 2;
    const CLIENTS: usize = 2 * CAPACITY;
    const LAUNCHES: u64 = 40;
    let config = ServerConfig {
        admission_capacity: Some(CAPACITY),
        shed_retry_ms: 7,
        // Per-tenant limits out of the way: only the global gate sheds.
        tenant_rate_per_sec: 1e9,
        tenant_burst: 1e9,
        tenant_parallelism: CLIENTS,
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.register("crowd", TRIPLE).unwrap();

    let start = std::sync::Barrier::new(CLIENTS);
    let (completed, shed) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    start.wait();
                    let (mut completed, mut shed) = (0u64, 0u64);
                    for _ in 0..LAUNCHES {
                        match client.launch(triple_spec("crowd", 1 << 15)).unwrap() {
                            Response::Launched { .. } => completed += 1,
                            Response::Overloaded { retry_after_ms } => {
                                assert_eq!(retry_after_ms, 7, "only the capacity gate sheds here");
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(retry_after_ms.into()));
                            }
                            other => panic!("healthy work surfaced {other:?}"),
                        }
                    }
                    (completed, shed)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });

    assert!(shed > 0, "{CLIENTS} clients on {CAPACITY} slots were all admitted: queueing?");
    let stats = setup.stats("crowd").unwrap();
    assert_eq!(stats.requests, CLIENTS as u64 * LAUNCHES);
    assert_eq!(stats.shed, shed);
    assert_eq!((stats.admitted, stats.completed, stats.failed), (completed, completed, 0));
    handle.shutdown();
}

#[test]
fn exec_quota_is_enforced_per_tenant() {
    let config = ServerConfig { tenant_quota_exec_ns: Some(1), ..ServerConfig::default() };
    let handle = start_server(config);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.register("metered", TRIPLE).unwrap();

    // The first launch is under quota; any real execution overshoots a
    // 1 ns budget, so the second is refused with a typed quota error.
    assert!(matches!(
        client.launch(triple_spec("metered", 64)).unwrap(),
        Response::Launched { .. }
    ));
    let (retryable, _) = expect_error(&client.launch(triple_spec("metered", 64)).unwrap(), "quota");
    assert!(!retryable, "quota exhaustion is not transient");

    // Another tenant's budget is untouched.
    let mut other = Client::connect(handle.addr()).unwrap();
    other.register("fresh", AFFINE).unwrap();
    let resp = other
        .launch(LaunchSpec {
            tenant: "fresh".into(),
            kernel: "affine".into(),
            grid: [1, 1, 1],
            block: [32, 1, 1],
            deadline_ms: 0,
            buffers: vec![WireBuffer { bytes: vec![0; 128], read_back: true }],
            params: vec![
                WireParam::Buffer(0),
                WireParam::U32(2),
                WireParam::U32(1),
                WireParam::U32(32),
            ],
        })
        .unwrap();
    assert!(matches!(resp, Response::Launched { .. }), "fresh tenant refused: {resp:?}");
    handle.shutdown();
}

#[test]
fn stats_for_unknown_tenant_are_zero() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats("never-seen").unwrap();
    assert_eq!(
        (stats.requests, stats.admitted, stats.shed, stats.completed, stats.failed),
        (0, 0, 0, 0, 0)
    );
    handle.shutdown();
}
