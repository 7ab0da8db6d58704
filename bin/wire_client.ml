(* The client side of the wire protocol, shared by ntload, nttop and
   ntwal: where the server listens, how to connect to it, and blocking
   request/response exchanges over one connection. *)

open Core
open Cmdliner

(* The server address from exactly one of --socket and --port; any
   other combination exits 2 with a message naming [tool]. *)
let addr tool =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH")
  in
  let port = Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT") in
  let resolve socket port =
    match (socket, port) with
    | Some path, None -> Unix.ADDR_UNIX path
    | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
    | _ ->
        Format.eprintf "%s: pass exactly one of --socket or --port@." tool;
        exit 2
  in
  Term.(const resolve $ socket $ port)

(* A blocking connection, retried for about five seconds while the
   server is not listening yet.  Every attempt opens a fresh socket:
   POSIX leaves a socket whose connect failed in an unspecified state. *)
let connect addr =
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception e -> (
        (try Unix.close fd with _ -> ());
        match e with
        | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 0
          ->
            Unix.sleepf 0.1;
            go (n - 1)
        | e -> raise e)
  in
  go 50

type conn = { fd : Unix.file_descr; reader : Wire.Reader.t }

let dial addr = { fd = connect addr; reader = Wire.Reader.create () }
let close c = try Unix.close c.fd with _ -> ()

let send c req =
  let s = Wire.encode_request req in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go 0

exception Closed

(* The next response on [c], blocking until it arrives.  Raises
   [Closed] at the end of the stream and [Failure] on a bad frame; the
   server answers a connection's requests in order. *)
let recv c =
  let b = Bytes.create 8192 in
  let rec next () =
    match Wire.Reader.next c.reader with
    | Ok (Some payload) -> (
        match Wire.decode_response payload with
        | Ok resp -> resp
        | Error e -> failwith e)
    | Ok None -> (
        match Unix.read c.fd b 0 (Bytes.length b) with
        | 0 -> raise Closed
        | n ->
            Wire.Reader.feed c.reader (Bytes.sub_string b 0 n);
            next ())
    | Error e -> failwith ("framing error: " ^ e)
  in
  next ()

let call c req =
  send c req;
  recv c
