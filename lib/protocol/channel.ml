exception Closed

(* one direction of an in-memory pipe: a queue of chunks plus an offset
   cursor into the front chunk, so reads cost O(bytes read) instead of
   rebuilding the whole buffered string on every call *)
type mem_stream = {
  chunks : string Queue.t;
  mutable offset : int;  (* consumed bytes of the front chunk *)
  mutable pending : int;  (* total unread bytes across all chunks *)
  mutable closed : bool;
}

type t =
  | Mem of { incoming : mem_stream; outgoing : mem_stream }
  | Fd of { fin : Unix.file_descr; fout : Unix.file_descr; mutable open_ : bool }
  | Wrapped of {
      base : t;
      on_write : t -> string -> unit;
      on_read_avail : t -> int -> string;
      on_close : t -> unit;
    }

let mem_stream () =
  { chunks = Queue.create (); offset = 0; pending = 0; closed = false }

let write t s =
  match t with
  | Mem m ->
      if m.outgoing.closed then raise Closed;
      if String.length s > 0 then begin
        Queue.add s m.outgoing.chunks;
        m.outgoing.pending <- m.outgoing.pending + String.length s
      end
  | Fd f ->
      if not f.open_ then raise Closed;
      let len = String.length s in
      let written = ref 0 in
      while !written < len do
        let n =
          try Unix.write_substring f.fout s !written (len - !written)
          with Unix.Unix_error (Unix.EPIPE, _, _) -> raise Closed
        in
        if n = 0 then raise Closed;
        written := !written + n
      done
  | Wrapped w -> w.on_write w.base s

let mem_take m buf n =
  (* precondition: m.pending >= n *)
  let need = ref n in
  while !need > 0 do
    let front = Queue.peek m.chunks in
    let avail = String.length front - m.offset in
    let take = min avail !need in
    Buffer.add_substring buf front m.offset take;
    m.offset <- m.offset + take;
    if m.offset = String.length front then begin
      ignore (Queue.pop m.chunks);
      m.offset <- 0
    end;
    m.pending <- m.pending - take;
    need := !need - take
  done

(* Descriptor reads land in one buffer per domain and only the bytes read
   are copied out.  A fresh [n]-byte buffer per call would put the pump's
   64 KiB cap straight into the major heap on every read; one buffer per
   channel would cost 64 KiB per open connection. *)
let read_buf = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Up to [n] bytes of whatever is already available, without blocking:
   the one read primitive, for the server's poll loop and the client's
   reply buffer alike.  "" means nothing is
   buffered right now; [Closed] is raised only once the stream is both
   exhausted and at end of stream, so buffered bytes written before a
   close are still delivered. *)
let read_avail t n =
  if n <= 0 then ""
  else
    match t with
    | Mem m ->
        if m.incoming.pending = 0 then
          if m.incoming.closed then raise Closed else ""
        else begin
          let take = min m.incoming.pending n in
          let buf = Buffer.create take in
          mem_take m.incoming buf take;
          Buffer.contents buf
        end
    | Fd f ->
        if not f.open_ then raise Closed;
        let readable, _, _ = Unix.select [ f.fin ] [] [] 0.0 in
        if readable = [] then ""
        else begin
          let buf = Domain.DLS.get read_buf in
          match Unix.read f.fin buf 0 (min n (Bytes.length buf)) with
          | 0 -> raise Closed
          | r -> Bytes.sub_string buf 0 r
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ""
        end
    | Wrapped w -> w.on_read_avail w.base n

let rec drain t =
  match t with
  | Mem m ->
      let n = m.incoming.pending in
      Queue.clear m.incoming.chunks;
      m.incoming.offset <- 0;
      m.incoming.pending <- 0;
      n
  | Fd f ->
      if not f.open_ then 0
      else begin
        let buf = Bytes.create 4096 in
        let total = ref 0 in
        let continue = ref true in
        Unix.set_nonblock f.fin;
        (try
           while !continue do
             match Unix.read f.fin buf 0 (Bytes.length buf) with
             | 0 -> continue := false
             | r -> total := !total + r
             | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
               ->
                 continue := false
           done
         with e ->
           (try Unix.clear_nonblock f.fin with Unix.Unix_error _ -> ());
           raise e);
        (try Unix.clear_nonblock f.fin with Unix.Unix_error _ -> ());
        !total
      end
  | Wrapped w -> drain w.base

let close = function
  | Mem m ->
      m.outgoing.closed <- true;
      m.incoming.closed <- true
  | Fd f ->
      if f.open_ then begin
        f.open_ <- false;
        (try Unix.close f.fin with Unix.Unix_error _ -> ());
        if f.fout <> f.fin then
          try Unix.close f.fout with Unix.Unix_error _ -> ()
      end
  | Wrapped w -> w.on_close w.base

let wrap ?on_write ?on_read_avail ?on_close base =
  Wrapped
    {
      base;
      on_write = (match on_write with Some f -> f | None -> write);
      on_read_avail =
        (match on_read_avail with Some f -> f | None -> read_avail);
      on_close = (match on_close with Some f -> f | None -> close);
    }

let of_fds fin fout = Fd { fin; fout; open_ = true }

(* The read descriptor under a channel, when there is one: what a select
   loop registers.  Wrappers delegate to their base, so a fault-injected
   socket connection is still pollable. *)
let rec read_fd = function
  | Mem _ -> None
  | Fd f -> if f.open_ then Some f.fin else None
  | Wrapped w -> read_fd w.base

let pipe_pair () =
  let a_to_b = mem_stream () in
  let b_to_a = mem_stream () in
  ( Mem { incoming = b_to_a; outgoing = a_to_b },
    Mem { incoming = a_to_b; outgoing = b_to_a } )

let fifo_pair ~path_a ~path_b =
  List.iter
    (fun p ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      Unix.mkfifo p 0o600)
    [ path_a; path_b ];
  let open_a () =
    (* opening order matters with FIFOs: read end first, matching B *)
    let fin = Unix.openfile path_a [ Unix.O_RDONLY ] 0 in
    let fout = Unix.openfile path_b [ Unix.O_WRONLY ] 0 in
    of_fds fin fout
  in
  let open_b () =
    let fout = Unix.openfile path_a [ Unix.O_WRONLY ] 0 in
    let fin = Unix.openfile path_b [ Unix.O_RDONLY ] 0 in
    of_fds fin fout
  in
  (open_a, open_b)
