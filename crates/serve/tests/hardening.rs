//! Wire-level behaviour of `tf_serve::serve` over real loopback TCP, with
//! the server running in-process: reply latency (no delayed-ACK stall),
//! worker survival after a bad request, the line cap, and a partial line
//! surviving the read timeout.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tf_serve::{serve, ServeCfg, MAX_LINE_BYTES};

const TINY_CERTIFY: &str =
    r#"{"id":1,"kind":"certify","trace":[[0.0,2.0],[0.0,1.0],[1.0,1.0]],"k":2}"#;

struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(threads: usize) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let cfg = ServeCfg {
            threads,
            task_timeout: None,
        };
        let thread = std::thread::spawn(move || serve(listener, &cfg));
        Server {
            addr,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect");
        // A wedged server fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn shutdown(mut self) {
        let reply = self.connect().call(r#"{"id":999,"kind":"shutdown"}"#);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let thread = self.thread.take().expect("running");
        thread.join().expect("server thread").expect("serve");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Send one line in a single write and read one reply line.
    fn call(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.reply()
    }

    fn reply(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("receive a reply");
        assert!(n > 0, "server closed the connection without replying");
        reply
    }
}

/// Twenty tiny `certify` round trips on one connection. Each costs a few
/// milliseconds of compute; a reply split into two writes waits ~40 ms
/// for the client's delayed ACK and puts the total near 800 ms.
#[test]
fn sequential_small_requests_do_not_stall_on_the_wire() {
    let server = Server::start(1);
    let mut client = server.connect();
    client.call(TINY_CERTIFY); // warm-up
    let t = Instant::now();
    for _ in 0..20 {
        let reply = client.call(TINY_CERTIFY);
        assert!(reply.contains("\"certified\":true"), "{reply}");
    }
    let total = t.elapsed();
    drop(client);
    server.shutdown();
    assert!(
        total < Duration::from_millis(400),
        "20 round trips took {total:?}"
    );
}

/// `m = 0` used to panic the single worker, after which nothing was
/// ever answered again. It now gets an error reply, and the next
/// connection is served.
#[test]
fn a_bad_request_cannot_take_down_the_only_worker() {
    let server = Server::start(1);
    let reply = server
        .connect()
        .call(r#"{"id":1,"kind":"ratio","trace":[[0,2],[0,1],[1,1]],"m":0}"#);
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("bad m: 0"), "{reply}");

    // A handler panic (non-positive speed in `ratio`) is survived too.
    let reply = server
        .connect()
        .call(r#"{"id":2,"kind":"ratio","trace":[[0,2],[0,1]],"speed":-1.0}"#);
    assert!(reply.contains("\"ok\":false"), "{reply}");

    let reply = server.connect().call(TINY_CERTIFY);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    server.shutdown();
}

/// A line that outgrows the cap without a newline gets a typed error
/// and the connection closes; the server keeps serving others.
#[test]
fn an_over_long_line_gets_an_error_and_a_close() {
    let server = Server::start(1);
    let mut client = server.connect();
    client
        .writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send");
    let reply = client.reply();
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("line too long"), "{reply}");
    let mut rest = String::new();
    assert_eq!(
        client.reader.read_line(&mut rest).expect("clean close"),
        0,
        "connection stayed open: {rest:?}"
    );
    drop(client);

    let reply = server.connect().call(TINY_CERTIFY);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    server.shutdown();
}

/// A request split across the server's 200 ms read timeout is still
/// read as one line.
#[test]
fn a_partial_line_survives_the_read_timeout() {
    let server = Server::start(1);
    let mut client = server.connect();
    let (head, tail) = TINY_CERTIFY.split_at(20);
    client.writer.write_all(head.as_bytes()).expect("send head");
    std::thread::sleep(Duration::from_millis(450));
    let reply = client.call(tail);
    assert!(reply.contains("\"certified\":true"), "{reply}");
    drop(client);
    server.shutdown();
}
