type state = Active | Draining | Closed

type event = Msg of Message.t | Strike of string | Eof

type t = {
  id : int;
  ch : Channel.t;
  resync_budget : int;
  mutable resync_left : int;
  mutable inbuf : string;  (* wire bytes not yet decoded into frames *)
  mutable state : state;
  mutable strikes : int;
  mutable queued : int;
  mutable served : int;
  mutable shed : int;
}

let create ?(resync_budget = 4096) ~id ch =
  {
    id;
    ch;
    resync_budget;
    resync_left = resync_budget;
    inbuf = "";
    state = Active;
    strikes = 0;
    queued = 0;
    served = 0;
    shed = 0;
  }

let id t = t.id
let state t = t.state
let strikes t = t.strikes
let note_strike t = t.strikes <- t.strikes + 1
let read_fd t = Channel.read_fd t.ch
let queued t = t.queued
let set_queued t n = t.queued <- n
let served t = t.served
let note_served t = t.served <- t.served + 1
let shed t = t.shed
let note_shed t = t.shed <- t.shed + 1

let close t =
  if t.state <> Closed then begin
    t.state <- Closed;
    t.inbuf <- "";
    try Channel.close t.ch with _ -> ()
  end

let start_draining t = if t.state = Active then t.state <- Draining

let send t m =
  if t.state <> Closed then
    try Message.send t.ch m
    with Channel.Closed | Channel.Timeout -> close t

(* read whatever the transport has buffered, up to [limit] bytes; [true]
   if the peer reached end of stream *)
let slurp t limit =
  let buf = Buffer.create 256 in
  let eof = ref false in
  (try
     let continue = ref true in
     while !continue && Buffer.length buf < limit do
       match Channel.read_avail t.ch (limit - Buffer.length buf) with
       | "" -> continue := false
       | s -> Buffer.add_string buf s
     done
   with Channel.Closed -> eof := true);
  if Buffer.length buf > 0 then
    t.inbuf <-
      (if t.inbuf = "" then Buffer.contents buf
       else t.inbuf ^ Buffer.contents buf);
  !eof

let default_pump_bytes = 1 lsl 16

(* Decode every complete frame out of [inbuf].  Garbage and malformed
   frames are resynchronized: a rejected frame start and a run of bytes
   without a magic are one strike each, and the pump hunts for the next
   magic on a budget that spans the bytes between two {e good} frames
   (refilled on every decoded message).  Exhaustion closes the
   connection: one byzantine peer must cost a bounded amount of
   scanning, never an unbounded stall of the shared loop. *)
let pump ?(max_bytes = default_pump_bytes) ?(max_frames = max_int) t =
  if t.state = Closed then []
  else begin
    let eof = slurp t max_bytes in
    let events = ref [] in
    let emit e = events := e :: !events in
    let frames = ref 0 in
    let pos = ref 0 in
    let len = String.length t.inbuf in
    let stop = ref false in
    while (not !stop) && !frames < max_frames && !pos < len do
      if t.inbuf.[!pos] <> Message.magic then begin
        (* contiguous garbage: one strike for the run, budget per byte *)
        let start = !pos in
        while !pos < len && t.inbuf.[!pos] <> Message.magic do incr pos done;
        t.resync_left <- t.resync_left - (!pos - start);
        t.strikes <- t.strikes + 1;
        emit (Strike "desynced input (no frame magic)")
      end
      else
        match Message.scan t.inbuf ~pos:!pos with
        | Message.Scan_msg (m, next) ->
            pos := next;
            t.resync_left <- t.resync_budget;
            incr frames;
            emit (Msg m)
        | Message.Scan_need_more -> stop := true
        | Message.Scan_bad why ->
            incr pos;
            t.resync_left <- t.resync_left - 1;
            t.strikes <- t.strikes + 1;
            emit (Strike why)
    done;
    t.inbuf <-
      (if !pos = 0 then t.inbuf else String.sub t.inbuf !pos (len - !pos));
    if t.resync_left < 0 then begin
      emit (Strike "resync budget exhausted");
      close t;
      emit Eof
    end
    else if eof && t.inbuf = "" then begin
      (* every complete frame was drained and nothing is left over *)
      close t;
      emit Eof
    end
    else if eof && !frames >= max_frames then
      (* frame-capped with buffered input remaining: leave the close to
         a later pump, once the backpressured frames have been taken *)
      ()
    else if eof then begin
      (* the loop above drained every complete frame; whatever partial
         tail remains can never complete once the peer is gone *)
      close t;
      emit Eof
    end;
    List.rev !events
  end
