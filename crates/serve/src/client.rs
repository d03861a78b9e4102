//! A small blocking client for the serve protocol, shared by the
//! `wasabi submit` subcommand and the integration tests.

use crate::protocol::{file_digests, parse_digest, render_puts, render_request, Request};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use wasabi_util::Json;

trait StreamIo: Read + Write {}
impl<T: Read + Write> StreamIo for T {}

/// Offers per submission: the first either admits the job or names the
/// files to upload, and once they are staged the second admits it.
const MAX_OFFERS: usize = 2;

/// One connection to a serve daemon.
pub struct Connection {
    reader: BufReader<Box<dyn StreamIo>>,
    /// Set once the daemon refused a v2 frame: submissions then go as
    /// single v1 frames.
    v1_only: bool,
}

impl Connection {
    /// Connects to `addr` — a unix socket path when it starts with `/`
    /// or `.`, a TCP `host:port` otherwise.
    pub fn connect(addr: &str) -> io::Result<Connection> {
        let stream: Box<dyn StreamIo> = {
            #[cfg(unix)]
            if addr.starts_with('/') || addr.starts_with('.') {
                Box::new(UnixStream::connect(addr)?)
            } else {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                Box::new(stream)
            }
            #[cfg(not(unix))]
            {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                Box::new(stream)
            }
        };
        Ok(Connection {
            reader: BufReader::new(stream),
            v1_only: false,
        })
    }

    /// Sends a raw line (tests use this for malformed frames).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write per frame (see the daemon's write_line): a separate
        // newline segment interacts badly with Nagle on TCP.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let writer = self.reader.get_mut();
        writer.write_all(&framed)?;
        writer.flush()
    }

    /// Reads one response line; `None` when the daemon closed the
    /// connection.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Sends a request and parses the one-line response. A `Submit` goes
    /// by digest (see [`crate::protocol`]): an offer, uploads of only the
    /// files the daemon lacks, and another offer; the reply is the one
    /// that admitted or refused the job.
    pub fn request(&mut self, request: &Request) -> io::Result<Json> {
        match request {
            Request::Submit {
                name,
                files,
                jobs,
                shards,
                ..
            } if !self.v1_only => {
                let digests = file_digests(files.iter().map(|(_, contents)| contents.as_str()));
                let offer = render_request(&Request::Offer {
                    name: name.clone(),
                    files: files
                        .iter()
                        .map(|(path, _)| path.clone())
                        .zip(digests.iter().copied())
                        .collect(),
                    jobs: *jobs,
                    shards: *shards,
                });
                let files: HashMap<u64, &(String, String)> =
                    digests.into_iter().zip(files).collect();
                self.submit_by_digest(request, &offer, &files)
            }
            _ => self.round_trip(&render_request(request)),
        }
    }

    fn submit_by_digest(
        &mut self,
        submit: &Request,
        offer: &str,
        files: &HashMap<u64, &(String, String)>,
    ) -> io::Result<Json> {
        for _ in 0..MAX_OFFERS {
            let reply = self.round_trip(offer)?;
            let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
            if error.starts_with("unsupported protocol version 2") {
                self.v1_only = true;
                return self.round_trip(&render_request(submit));
            }
            let Some(missing) = reply.get("missing").and_then(Json::as_arr) else {
                return Ok(reply);
            };
            let max_frame = reply
                .get("max_frame")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    invalid_data("an offer reply lists missing files without max_frame")
                })?;
            let wanted = missing
                .iter()
                .map(|digest| {
                    digest
                        .as_str()
                        .and_then(parse_digest)
                        .and_then(|digest| files.get(&digest).copied())
                        .ok_or_else(|| {
                            invalid_data(&format!(
                                "the daemon asked for a file it was not offered: {digest}"
                            ))
                        })
                })
                .collect::<io::Result<Vec<&(String, String)>>>()?;
            let contents: Vec<&str> = wanted.iter().map(|(_, contents)| contents.as_str()).collect();
            let frames = match render_puts(&contents, max_frame) {
                Ok(frames) => frames,
                // Like an oversized v1 frame: a refusal no retry can fix.
                Err(at) => {
                    let (path, contents) = wanted[at];
                    let message = format!(
                        "{path} ({} bytes) does not fit in the daemon's {max_frame}-byte frame",
                        contents.len()
                    );
                    return Ok(Json::obj([
                        ("ok", Json::from(false)),
                        ("error", Json::from(message)),
                    ]));
                }
            };
            for frame in frames {
                let stored = self.round_trip(&frame)?;
                if stored.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Ok(stored);
                }
            }
        }
        Err(invalid_data(&format!(
            "the daemon still lacked files after {MAX_OFFERS} offers"
        )))
    }

    fn round_trip(&mut self, line: &str) -> io::Result<Json> {
        self.send_line(line)?;
        let line = self.read_line()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection")
        })?;
        Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

fn invalid_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}
