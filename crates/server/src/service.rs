//! The daemon: accept loop, per-connection handlers, admission, and the
//! retry-with-degradation ladder around the device pool.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpvk_core::{CoreError, Device, ExecConfig, ParamValue};
use dpvk_trace::Counter;
use dpvk_vm::MachineModel;

use crate::admission::CapacityGate;
use crate::protocol::{write_frame, LaunchSpec, ProtoError, Request, Response, WireParam};
use crate::tenant::{TenantRegistry, TenantState};
use crate::ServerConfig;

/// How often an idle connection handler and the accept loop re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// Per-attempt launch deadline when the request says `0`.
const DEFAULT_DEADLINE_MS: u32 = 2_000;
/// Upper clamp on client-requested deadlines.
const MAX_DEADLINE_MS: u32 = 10_000;
/// First retry backoff; doubles per retry up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 2;
/// Backoff ceiling.
const BACKOFF_CAP_MS: u64 = 50;

/// The kernel service: owns the device (worker pool included), the
/// tenant registry and the listening socket.
///
/// Create with [`Server::bind`], then either run [`Server::serve`] on
/// the current thread or [`Server::start`] a background thread and keep
/// the returned [`ServerHandle`] for shutdown.
pub struct Server {
    dev: Device,
    config: ServerConfig,
    listener: TcpListener,
    tenants: TenantRegistry,
    gate: Arc<CapacityGate>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind a server on `127.0.0.1` (ephemeral port) with a fresh device
    /// of the given machine model and heap size.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors.
    pub fn bind(
        model: MachineModel,
        heap_bytes: usize,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let dev = Device::new(model, heap_bytes);
        let capacity = config.admission_capacity.unwrap_or_else(|| 2 * dev.pool_workers());
        Ok(Server {
            dev,
            config,
            listener,
            tenants: TenantRegistry::default(),
            gate: CapacityGate::new(capacity),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address clients connect to.
    ///
    /// # Errors
    ///
    /// Socket introspection errors.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// In-flight capacity of the admission gate.
    pub fn admission_capacity(&self) -> usize {
        self.gate.capacity()
    }

    /// Run the accept loop on the current thread until [`ServerHandle`]
    /// (or anything holding the shutdown flag) requests shutdown. Each
    /// connection gets a scoped handler thread; requests on one
    /// connection execute in order (the handler blocks on each launch),
    /// while connections proceed concurrently up to the admission
    /// limits.
    pub fn serve(&self) {
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        scope.spawn(move || self.handle_connection(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            // Scope exit joins the handlers; each notices the flag within
            // one poll interval and drains.
        });
        self.gate.wait_idle();
    }

    /// Spawn [`Server::serve`] on a background thread and return a
    /// handle that shuts it down (and joins it) on
    /// [`ServerHandle::shutdown`] or drop.
    ///
    /// # Errors
    ///
    /// Socket introspection errors (the bound address is captured into
    /// the handle).
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let join =
            std::thread::Builder::new().name("dpvk-server".into()).spawn(move || self.serve())?;
        Ok(ServerHandle { addr, shutdown, join: Some(join) })
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL));
        loop {
            let payload = match read_frame_interruptible(&mut stream, &self.shutdown) {
                Ok(Some(p)) => p,
                Ok(None) | Err(_) => return,
            };
            let response = match Request::decode(&payload) {
                Ok(req) => self.handle_request(&req),
                Err(e) => proto_error(&e),
            };
            if write_frame(&mut stream, &response.encode()).is_err() {
                return;
            }
        }
    }

    fn handle_request(&self, req: &Request) -> Response {
        match req {
            Request::Register { tenant, source } => self.handle_register(tenant, source),
            Request::Launch(spec) => self.handle_launch(spec),
            Request::Stats { tenant } => Response::Stats(self.tenant_stats(tenant)),
        }
    }

    /// Assemble a `Stats` payload: the tenant's serving counters and a
    /// device-wide heap snapshot. An unknown tenant gets zeroed serving
    /// counters but still sees the heap snapshot.
    fn tenant_stats(&self, tenant: &str) -> crate::protocol::TenantStats {
        let mut stats = self.tenants.get(tenant).map(|t| t.stats()).unwrap_or_default();
        let mem = self.dev.memory_stats();
        stats.heap_live_bytes = mem.live_bytes;
        stats.heap_high_water = mem.high_water;
        stats
    }

    fn handle_register(&self, tenant_name: &str, source: &str) -> Response {
        let tenant = self.tenants.get_or_create(tenant_name, &self.config);
        // Claim every kernel name *before* registering: a name conflict
        // must not let one tenant overwrite another's registered kernel.
        let names = match dpvk_ptx::parse_module(source) {
            Ok(module) => module.kernels.iter().map(|k| k.name.clone()).collect::<Vec<_>>(),
            Err(e) => {
                let e = CoreError::from(e);
                return error_response(&e, 0);
            }
        };
        for name in &names {
            if let Err(owner) = self.tenants.claim_kernel(name, tenant_name) {
                return Response::Error {
                    code: "name_conflict".into(),
                    retryable: false,
                    attempts: 0,
                    message: format!("kernel `{name}` is already registered by tenant `{owner}`"),
                };
            }
        }
        if let Err(e) = self.dev.register_source(source) {
            return error_response(&e, 0);
        }
        let mut kernels = tenant.kernels.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for name in names {
            kernels.insert(name);
        }
        Response::Registered
    }

    fn handle_launch(&self, spec: &LaunchSpec) -> Response {
        let tenant = self.tenants.get_or_create(&spec.tenant, &self.config);
        dpvk_trace::add(Counter::ServerRequests, 1);
        tenant.update_stats(|s| s.requests += 1);

        // Ownership: launching another tenant's kernel is denied, an
        // unknown kernel is not found. Checked before admission so a
        // misaddressed request cannot consume another tenant's budget.
        if !tenant.owns(&spec.kernel) {
            let (code, message) = match self.tenants.owner_of(&spec.kernel) {
                Some(owner) => {
                    ("denied", format!("kernel `{}` belongs to tenant `{owner}`", spec.kernel))
                }
                None => ("not_found", format!("kernel `{}` is not registered", spec.kernel)),
            };
            tenant.update_stats(|s| s.failed += 1);
            dpvk_trace::add(Counter::ServerFailed, 1);
            return Response::Error { code: code.into(), retryable: false, attempts: 0, message };
        }

        // Quota: a tenant that has spent its execution budget gets a
        // typed, non-retryable refusal, not silent service.
        if let Some(quota) = self.config.tenant_quota_exec_ns {
            let spent = tenant.exec_ns.load(Ordering::Relaxed);
            if spent >= quota {
                tenant.update_stats(|s| s.failed += 1);
                dpvk_trace::add(Counter::ServerFailed, 1);
                return Response::Error {
                    code: "quota".into(),
                    retryable: false,
                    attempts: 0,
                    message: format!("execution quota exhausted ({spent} of {quota} ns)"),
                };
            }
        }

        // Admission: token bucket first (per-tenant rate), then the
        // global capacity gate (pool saturation), then the tenant's
        // stream-group slots (per-tenant concurrency). All three shed
        // with an explicit retry hint instead of queueing.
        if let Err(retry_after_ms) = tenant.try_take_token() {
            return self.shed(&tenant, retry_after_ms);
        }
        let Some(_global_permit) = self.gate.try_acquire() else {
            return self.shed(&tenant, self.config.shed_retry_ms);
        };
        let Some(_tenant_permit) = tenant.slots.try_acquire() else {
            return self.shed(&tenant, self.config.shed_retry_ms);
        };

        dpvk_trace::add(Counter::ServerAdmitted, 1);
        tenant.update_stats(|s| s.admitted += 1);
        self.execute_admitted(&tenant, spec)
    }

    fn shed(&self, tenant: &TenantState, retry_after_ms: u32) -> Response {
        dpvk_trace::add(Counter::ServerShed, 1);
        tenant.update_stats(|s| s.shed += 1);
        Response::Overloaded { retry_after_ms }
    }

    /// The retry ladder, run with admission permits held: vectorized
    /// attempts with capped exponential backoff on transient failures
    /// (worker panics, deadline-adjacent timeouts), then one
    /// scalar-baseline attempt, then a typed error.
    fn execute_admitted(&self, tenant: &TenantState, spec: &LaunchSpec) -> Response {
        // Resolve buffers and parameters before the first attempt.
        let mut ptrs = Vec::with_capacity(spec.buffers.len());
        for buf in &spec.buffers {
            match self.dev.malloc(buf.bytes.len().max(1)) {
                Ok(ptr) => ptrs.push(ptr),
                Err(e) => {
                    self.release_buffers(&ptrs);
                    return self.fail(tenant, &e, 0, 0);
                }
            }
        }
        let mut params = Vec::with_capacity(spec.params.len());
        for p in &spec.params {
            params.push(match *p {
                WireParam::U32(v) => ParamValue::U32(v),
                WireParam::U64(v) => ParamValue::U64(v),
                WireParam::F32(v) => ParamValue::F32(v),
                WireParam::F64(v) => ParamValue::F64(v),
                WireParam::Buffer(i) => match ptrs.get(i as usize) {
                    Some(&ptr) => ParamValue::Ptr(ptr),
                    None => {
                        self.release_buffers(&ptrs);
                        let e = CoreError::BadLaunch(format!(
                            "parameter references buffer {i} of {}",
                            ptrs.len()
                        ));
                        return self.fail(tenant, &e, 0, 0);
                    }
                },
            });
        }
        let deadline_ms = match spec.deadline_ms {
            0 => DEFAULT_DEADLINE_MS,
            ms => ms.min(MAX_DEADLINE_MS),
        };
        let budget = Duration::from_millis(u64::from(deadline_ms));

        let mut config = ExecConfig::dynamic(4);
        let mut attempts: u32 = 0;
        let mut degraded = false;
        let mut exec_ns: u64 = 0;
        let outcome = loop {
            attempts += 1;
            // Re-upload inputs on every attempt: kernels are not
            // idempotent (in-place updates), so a retry must not see a
            // half-written buffer from the failed attempt.
            if let Some(e) = spec
                .buffers
                .iter()
                .zip(&ptrs)
                .find_map(|(buf, &ptr)| self.dev.memcpy_htod(ptr, &buf.bytes).err())
            {
                break Err(e);
            }
            let t0 = Instant::now();
            let result = self.dev.launch_with_deadline(
                &spec.kernel,
                spec.grid,
                spec.block,
                &params,
                &config,
                budget,
            );
            exec_ns += t0.elapsed().as_nanos() as u64;
            match result {
                Ok(_stats) => break Ok(()),
                Err(e) if e.is_retryable() => {
                    if attempts <= self.config.max_retries {
                        dpvk_trace::add(Counter::ServerRetries, 1);
                        tenant.update_stats(|s| s.retries += 1);
                        let shift = (attempts - 1).min(16);
                        let backoff =
                            BACKOFF_BASE_MS.saturating_mul(1 << shift).min(BACKOFF_CAP_MS);
                        std::thread::sleep(Duration::from_millis(backoff));
                        continue;
                    }
                    if self.config.degrade_to_scalar && !degraded {
                        // Last rung before giving up: the scalar baseline
                        // avoids the vector-specialized path entirely.
                        degraded = true;
                        config = ExecConfig::baseline();
                        dpvk_trace::add(Counter::ServerDegraded, 1);
                        tenant.update_stats(|s| s.degraded += 1);
                        continue;
                    }
                    break Err(e);
                }
                Err(e) => break Err(e),
            }
        };

        let response = match outcome {
            Ok(()) => {
                let mut outputs = Vec::new();
                let mut read_back_error = None;
                for (buf, &ptr) in spec.buffers.iter().zip(&ptrs) {
                    if !buf.read_back {
                        continue;
                    }
                    let mut bytes = vec![0u8; buf.bytes.len()];
                    match self.dev.memcpy_dtoh(&mut bytes, ptr) {
                        Ok(()) => outputs.push(bytes),
                        Err(e) => {
                            read_back_error = Some(e);
                            break;
                        }
                    }
                }
                match read_back_error {
                    Some(e) => self.fail(tenant, &e, attempts, exec_ns),
                    None => {
                        dpvk_trace::add(Counter::ServerCompleted, 1);
                        tenant.update_stats(|s| {
                            s.completed += 1;
                            s.exec_ns += exec_ns;
                        });
                        tenant.charge_exec_ns(exec_ns);
                        Response::Launched { attempts, degraded, outputs }
                    }
                }
            }
            Err(e) => self.fail(tenant, &e, attempts, exec_ns),
        };
        self.release_buffers(&ptrs);
        response
    }

    fn fail(&self, tenant: &TenantState, e: &CoreError, attempts: u32, exec_ns: u64) -> Response {
        dpvk_trace::add(Counter::ServerFailed, 1);
        tenant.update_stats(|s| {
            s.failed += 1;
            s.exec_ns += exec_ns;
        });
        tenant.charge_exec_ns(exec_ns);
        error_response(e, attempts)
    }

    fn release_buffers(&self, ptrs: &[dpvk_core::DevicePtr]) {
        for &ptr in ptrs {
            // A stale or double release is a server bug but must not take
            // the request loop down; the heap rejects it and we move on.
            let _ = self.dev.free(ptr);
        }
    }
}

fn error_response(e: &CoreError, attempts: u32) -> Response {
    Response::Error {
        code: e.code().into(),
        retryable: e.is_retryable(),
        attempts,
        message: e.to_string(),
    }
}

fn proto_error(e: &ProtoError) -> Response {
    Response::Error { code: "proto".into(), retryable: false, attempts: 0, message: e.to_string() }
}

/// [`read_frame`] against a socket with a read timeout installed:
/// timeouts while *waiting between frames* loop back to check the
/// shutdown flag; timeouts (or EOF) *inside* a frame mean the peer died
/// mid-message and close the connection.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    // The rest of the frame follows the first length byte; a peer that
    // started a frame is expected to finish it promptly.
    let mut rest = [0u8; 3];
    read_full(stream, &mut rest)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]);
    if len > crate::protocol::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::TooLarge(u64::from(len)).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload)?;
    Ok(Some(payload))
}

/// `read_exact` that rides through read-timeout and interrupt errors
/// (the socket has a short timeout installed for shutdown polling).
fn read_full(stream: &mut TcpStream, mut buf: &mut [u8]) -> io::Result<()> {
    let mut stalls = 0;
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                stalls = 0;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                stalls += 1;
                // ~10 s of silence mid-frame: the peer is gone.
                if stalls > 500 {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Shuts the background server down (sets the flag, joins the thread) on
/// [`ServerHandle::shutdown`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and join the server thread. In-flight requests
    /// drain; idle connections close within one poll interval.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
